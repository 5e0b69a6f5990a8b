"""One benchmark run in its own process (started by ``run.py``).

The process runs with BLAS pinned by ``run.py`` before numpy loads.  It
imports the package (timed from the moment ``run.py`` spawned it), makes the
workload's inputs and references, sets up (builds the sensors and the
receiver or hub and streams one warm-up frame), then runs whole rounds for
``--seconds`` and checks every round's output.  Its set-up time is the
import plus the warm-up, without the input generation; ``--setup-only``
stops there, which is how ``run.py`` takes more set-up samples in fresh
processes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced window, then a traced window with the program's
:class:`~repro.telemetry.Telemetry` wired through its public ``telemetry=``
parameters, times each layer's public calls on the run's own data, writes
the spans to ``perfbench/out/`` and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from seams import LoopLagProbe, TimedExecutor, now, solve_end_times

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, read back through its C API."""
    found = {}
    with open("/proc/self/maps") as maps:
        libraries = {
            line.split()[-1]
            for line in maps
            if "openblas" in line.lower() and line.rstrip().endswith(".so")
        }
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = int(getter())
                break
    return found


def environment(executor_workers: int) -> dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "default_executor_workers": executor_workers,
    }


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else 0.0


def solved(out) -> int:
    """Frames of one round that landed with a reconstruction."""
    return sum(
        1
        for stream in out.streams
        for frame in stream.frames
        if frame.reconstruction is not None
    )


class Pass:
    """The rounds of one measured window and what the seams saw."""

    def __init__(self) -> None:
        self.rounds = []
        self.jobs = []
        self.telemetries = []
        self.reports = []
        self.wall_s = 0.0
        self.lags: list[float] = []

    @property
    def frames(self) -> list:
        """Every delivered frame of every round and stream."""
        return [
            frame
            for out in self.rounds
            for stream in out.streams
            for frame in stream.frames
        ]

    @property
    def solved(self) -> int:
        return sum(solved(out) for out in self.rounds)

    @property
    def attempted(self) -> int:
        return sum(out.n_frames_attempted for out in self.rounds)

    def latencies(self) -> list[float]:
        """Seconds from each frame entering to its reconstruction finishing."""
        out = []
        for out_round, jobs in zip(self.rounds, self.jobs):
            ends = solve_end_times(jobs)
            for stream in out_round.streams:
                for frame in stream.frames:
                    end = ends.get(id(frame.reconstruction))
                    entered = stream.entered.get(frame.frame_index)
                    if end is not None and entered is not None:
                        out.append(end - entered)
        return out


async def measure(workload, executor, seconds: float, traced: bool) -> Pass:
    """Run whole rounds for ``seconds``, and at least the workload's minimum.

    A further round starts only while the mean round so far would still end
    inside the window, so a run measures about ``seconds`` whatever the
    round length.
    """
    from repro.telemetry import Telemetry

    result = Pass()
    probe = LoopLagProbe()
    probe.start()
    executor.take_jobs()
    started = now()
    while True:
        elapsed = now() - started
        n_rounds = len(result.rounds)
        if n_rounds >= workload.min_rounds and elapsed * (n_rounds + 1) > seconds * n_rounds:
            break
        telemetry = Telemetry() if traced else None
        round_cpu = time.process_time()
        out = await workload.run_round(telemetry, keep_wire=not result.rounds)
        out.cpu_s = time.process_time() - round_cpu
        result.rounds.append(out)
        result.jobs.append(executor.take_jobs())
        result.telemetries.append(telemetry)
    result.wall_s = now() - started
    await probe.stop()
    result.lags = probe.lags
    return result


def check(workload, measured: Pass) -> list[str]:
    """Check every round's output; keep the reports for the quality metric."""
    measured.reports = [workload.check(out) for out in measured.rounds]
    return [problem for report in measured.reports for problem in report.problems]


def end_to_end(workload, measured: Pass, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics; rates are medians over the window's rounds."""
    per_round = [(solved(out), out) for out in measured.rounds]
    latencies = measured.latencies()
    p50 = median(latencies)
    if workload.tail_percentile is None:
        # Fewer than 40 frames a run: no percentile has ten frames beyond
        # it, so the tail is reported as the median (see README).
        tail = p50
    else:
        tail = percentile(latencies, workload.tail_percentile)
    psnrs = [value for report in measured.reports for value in report.psnr]
    wire = sum(out.wire_bytes for out in measured.rounds)
    return {
        "setup_s": (setup_s, "s"),
        "frames_per_s": (median([n / out.wall_s for n, out in per_round]), "1/s"),
        "frame_latency_p50_s": (p50, "s"),
        "frame_latency_tail_s": (tail, "s"),
        "cpu_s_per_frame": (
            median([out.cpu_s / max(n, 1) for n, out in per_round]),
            "s",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wire_bytes_per_frame": (wire / max(measured.attempted, 1), "bytes"),
        "psnr_db": (statistics.fmean(psnrs) if psnrs else 0.0, "dB"),
    }


async def drive(args: argparse.Namespace) -> tuple[dict, list[str], int, int]:
    import layers
    from repro.recon import ReconstructionResult, TiledReconstructionResult
    from repro.telemetry import Telemetry
    from workloads import WORKLOADS

    import_s = time.monotonic() - float(
        os.environ.get("PERFBENCH_SPAWN_T", STARTED)
    )
    workload = WORKLOADS[args.workload](args.seed)
    executor = TimedExecutor((ReconstructionResult, TiledReconstructionResult))
    asyncio.get_running_loop().set_default_executor(executor)
    if args.setup_only:
        await workload.make_warm_input()
        started = now()
        await workload.warm_up()
        return {"setup_s": (import_s + now() - started, "s")}, [], 0, 0
    env = environment(executor.n_workers)
    print(json.dumps({"environment": env}), flush=True)

    recording = Telemetry() if args.trace else None
    await workload.make_inputs(recording)
    input_jobs = executor.take_jobs()
    started = now()
    await workload.warm_up()
    setup_s = import_s + now() - started

    untraced = await measure(workload, executor, args.seconds, traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check(workload, untraced)
    if not args.trace:
        metrics = end_to_end(workload, untraced, setup_s, peak_rss_mb)
    else:
        traced = await measure(workload, executor, args.seconds, traced=True)
        problems.extend(check(workload, traced))
        metrics = layers.per_layer(workload, untraced, traced, input_jobs, recording)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        layers.write_spans(spans, traced, recording, env)
        print(json.dumps({"spans": str(spans.relative_to(ROOT))}), flush=True)
    attempted = untraced.attempted
    failed = attempted - untraced.solved
    return metrics, problems, attempted, failed


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    metrics, problems, attempted, failed = asyncio.run(drive(args))
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
