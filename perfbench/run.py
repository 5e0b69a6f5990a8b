"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload video64 --seed 1 --seconds 12 --trace 0

Runs the workload in a child process (``bench.py``) whose BLAS libraries
are pinned to one thread before numpy loads, so the gated numbers do not
depend on how many threads OpenBLAS would start on this machine.  Set-up
time is counted from the moment a child is spawned to the end of its
warm-up frame; ``setup_s`` is the median of the run's own set-up and
:data:`EXTRA_SETUPS` more taken in fresh set-up-only processes.  The last
line of standard output is the run's JSON result; the exit code is
non-zero when a child failed or overran :data:`TIMEOUT_S` in total.

``--blas-threads default`` leaves the BLAS thread variables as the caller
set them; it exists to record the reference figure the README keeps.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 175.0
EXTRA_SETUPS = 2


class ChildFailed(RuntimeError):
    pass


def run_child(command: list[str], env: dict[str, str], deadline: float) -> list[str]:
    """Run one child to completion; return its standard output lines."""
    env = dict(env, PERFBENCH_SPAWN_T=repr(time.monotonic()))
    try:
        done = subprocess.run(
            command,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"run overran {TIMEOUT_S:.0f} s and was stopped") from error
    if done.returncode:
        raise ChildFailed(f"{command[1]} exited with code {done.returncode}")
    lines = done.stdout.splitlines()
    if not lines:
        raise ChildFailed(f"{command[1]} printed no result")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", default="1")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S
    env = dict(os.environ)
    for variable in BLAS_VARIABLES:
        if args.blas_threads != "default":
            env[variable] = args.blas_threads
    command = [
        sys.executable,
        str(HERE / "bench.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        setups = []
        if not args.trace:
            for _ in range(EXTRA_SETUPS):
                last = run_child(command + ["--setup-only"], env, deadline)[-1]
                setups.append(json.loads(last)["metrics"]["setup_s"]["value"])
        lines = run_child(command, env, deadline)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])
    if setups:
        setup = result["metrics"]["setup_s"]
        setup["value"] = statistics.median(setups + [setup["value"]])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
