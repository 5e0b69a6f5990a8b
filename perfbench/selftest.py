"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py [--seeds 1 2]

1. The Rule-30 reference draws the rule's known triangle on a periodic ring.
2. All three workloads run end to end at a tiny size (same code paths, fewer
   and smaller frames and streams) and pass every check, at each seed.
3. Each check fails on a corrupted copy of a real output: a flipped seed
   bit, a perturbed sample, swapped frames, a missing frame, swapped
   reconstructions, a reconstruction made too bright, a mosaic tile with a
   wrong seed, and a loss record that disagrees with the channel.

Exits non-zero on the first case that does not behave.
"""

from __future__ import annotations

import argparse
import asyncio
import copy
import os
import sys
from pathlib import Path

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import rule30_ref  # noqa: E402
from workloads import WORKLOADS, Fleet40, Mosaic256, Video64  # noqa: E402

#: Rule 30's first generations from a single live cell, trimmed to the
#: light cone (the rule's well-known triangle).
FIRST_ROWS = ("1", "111", "11001", "1101111", "110010001", "11011110111")


class SelfTestError(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)
    print(f"ok   {message}")


def expect_problem(problems: list[str], needle: str, case: str) -> None:
    hits = [problem for problem in problems if needle in problem]
    expect(bool(hits), f"{case} is caught ({hits[0] if hits else problems})")


def test_reference() -> None:
    width, centre = 31, 15
    seed = np.zeros(width, dtype=np.uint8)
    seed[centre] = 1
    states = rule30_ref.pattern_states(
        seed, len(FIRST_ROWS), steps_per_sample=1, warmup_steps=0
    )
    rows = tuple(
        "".join(str(int(bit)) for bit in state[centre - g : centre + g + 1])
        for g, state in enumerate(states)
    )
    expect(rows == FIRST_ROWS, "Rule-30 reference draws the rule's known triangle")
    ring = rule30_ref.pattern_states(
        np.eye(1, 8, 0, dtype=np.uint8)[0], 2, steps_per_sample=1, warmup_steps=0
    )
    expect(
        "".join(map(str, ring[1])) == "11000001",
        "Rule-30 reference wraps the ring (periodic boundary)",
    )


async def one_round(workload):
    await workload.make_inputs()
    await workload.warm_up()
    return await workload.run_round()


def test_workloads(seeds: list[int]) -> dict:
    outputs = {}
    for seed in seeds:
        for name, cls in WORKLOADS.items():
            workload = cls(seed, tiny=True)
            out = asyncio.run(one_round(workload))
            report = workload.check(out)
            delivered = sum(len(stream.frames) for stream in out.streams)
            expect(
                delivered == out.n_frames_attempted,
                f"{name} seed {seed}: {delivered} frames delivered",
            )
            expect(not report.problems, f"{name} seed {seed}: checks pass {report.problems[:3]}")
            expect(
                report.n_seedless_checked > 0,
                f"{name} seed {seed}: {report.n_seedless_checked} re-derived seeds checked",
            )
            outputs.setdefault(name, (workload, out))
    return outputs


def corrupted(workload, out, mutate) -> list[str]:
    frames = copy.deepcopy(out.streams[0].frames)
    mutate(frames)
    return checks.check_stream(
        "corrupt",
        frames,
        workload.local,
        gop_size=4,
        n_samples=workload.n_samples,
        psnr_floor=workload.psnr_floor,
    ).problems


def test_negative(outputs: dict) -> None:
    workload, out = outputs[Video64.name]

    def flip_seed_bit(frames):
        frames[1].capture.seed_state[3] ^= 1

    def perturb_sample(frames):
        frames[2].capture.samples[7] += 1

    def swap_frames(frames):
        frames[1].capture, frames[2].capture = frames[2].capture, frames[1].capture
        frames[1].reconstruction, frames[2].reconstruction = (
            frames[2].reconstruction,
            frames[1].reconstruction,
        )

    def drop_frame(frames):
        del frames[3]

    def swap_reconstructions(frames):
        frames[1].reconstruction, frames[2].reconstruction = (
            frames[2].reconstruction,
            frames[1].reconstruction,
        )

    def shift_mean(frames):
        image = frames[2].reconstruction.image
        image += 0.2 * image.mean()

    for mutate, needle, case in (
        (flip_seed_bit, "Rule-30 continuation", "a flipped seed bit"),
        (perturb_sample, "LSB", "a perturbed sample"),
        (swap_frames, "frame 1", "swapped frames"),
        (drop_frame, "exactly once", "a missing frame"),
        (swap_reconstructions, "reconstruction residual", "swapped reconstructions"),
        (shift_mean, "sample mean", "a reconstruction 20 % too bright"),
    ):
        expect_problem(corrupted(workload, out, mutate), needle, case)

    workload, out = outputs[Mosaic256.name]

    def flip_tile_seed(frames):
        frames[1].capture.tiles[1][0].seed_state[0] ^= 1

    expect_problem(
        corrupted(workload, out, flip_tile_seed), "tile (1, 0)", "a mosaic tile seed flip"
    )

    workload, out = outputs[Fleet40.name]
    recording = workload.recordings[0]
    stream = next(s for s in out.streams if s.stream_id == recording.stream_id)
    problems = checks.check_loss_accounting(
        "corrupt",
        stream.frames,
        recording.chunk_frames,
        list(recording.dropped) + [next(iter(recording.chunk_frames))],
        stream.n_lost_chunks,
    )
    expect_problem(problems, "dropped", "a loss record that disagrees with the channel")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    try:
        test_reference()
        outputs = test_workloads(args.seeds)
        test_negative(outputs)
    except SelfTestError as error:
        print(f"FAIL {error}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
