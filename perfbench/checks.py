"""Output checks, computed apart from the program.

Every check compares what the receiver delivered against either the
independent Rule-30 reference (:mod:`rule30_ref`) or a property the method
must have.  None compares against a stored copy of earlier output.  Each
check function returns a list of problems (empty when the output is right),
so the self-test can corrupt an output and see the matching check fire.

Per frame position (the one sensor, or each mosaic tile):

* the frame lands exactly once, with the configured sample count;
* a keyframe carries the sensor's seed, and every seedless frame's seed is
  the reference Rule-30 continuation of the previous frame's, one pattern per
  sample (the receiver re-derived it; nothing crossed the wire);
* the received samples (the surviving ones on a lossy stream) equal
  ``Φ_ref · x_digital`` up to the sensor's late-detection LSB error: every
  difference lies in ``[0, bound]`` with ``bound`` six binomial sigmas above
  the expected bump count, and on a complete frame the differences add up
  exactly to the LSB-error count the frame's capture statistics carried;
* the samples also equal a local capture of the same scene and seed, bit for
  bit (the wire and the receiver must not change a value);
* the reconstruction reproduces its samples through ``Φ_ref``: their
  variation to :data:`RESIDUAL_TOL` and their mean to :data:`MEAN_TOL`, and
  it reaches the workload's PSNR floor against the ground-truth code image.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import rule30_ref

#: Largest residual a reconstruction may leave on the variation of its own
#: samples: with ``e = Φ_ref x̂ - y``, ``||e - mean(e)|| / ||y - mean(y)||``.
#: (Relative to ``||y||`` itself every image with the right mean would pass:
#: each sample sums thousands of pixels.)  The l1 solves leave at most 0.005
#: on these scenes; the reconstruction of the neighbouring frame, filed under
#: the wrong one, leaves about 0.5 (the self-test's swapped reconstructions).
RESIDUAL_TOL = 0.1

#: Largest offset a reconstruction may leave on the mean of its samples,
#: relative to that mean: ``|mean(e)| / mean(y)``.  The receiver takes the
#: image DC from the sample mean and solves only for the rest, but the pixel
#: sum of that rest is left free, so the reconstructed mean drifts by up to
#: about 3 % of the samples' mean (a constant ``e``, which the variation
#: residual above does not see).  How far it drifts depends on the scene, so
#: this bound only catches a gross error (a lost or doubled DC, a frame mixed
#: up with a darker or brighter one), not that drift.
MEAN_TOL = 0.1

#: Binomial sigmas above the expected LSB bump count a sample may sit.
LSB_SIGMAS = 6.0


def psnr_db(reference: np.ndarray, estimate: np.ndarray) -> float:
    """PSNR with the reference's dynamic range as the peak."""
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    error = float(np.mean((reference - estimate) ** 2))
    peak = float(reference.max() - reference.min()) or 1.0
    if error == 0.0:
        return float("inf")
    return 10.0 * float(np.log10(peak**2 / error))


@dataclass
class Position:
    """One frame position as delivered: a tile frame, its mask, its image."""

    frame: Any
    mask: np.ndarray | None
    image: np.ndarray | None


@dataclass
class Report:
    """What the checks found, plus the figures they measured on the way."""

    problems: list[str] = field(default_factory=list)
    psnr: list[float] = field(default_factory=list)
    n_seedless_checked: int = 0

    def extend(self, other: Report) -> None:
        self.problems.extend(other.problems)
        self.psnr.extend(other.psnr)
        self.n_seedless_checked += other.n_seedless_checked


def positions(received: Any) -> dict[tuple[int, int], Position]:
    """Split a received frame into its positions (one, or one per tile)."""
    capture = received.capture
    reconstruction = received.reconstruction
    if hasattr(capture, "tiles"):
        out = {}
        for r, row in enumerate(capture.tiles):
            for c, tile in enumerate(row):
                image = None
                if reconstruction is not None:
                    image = reconstruction.tile_results[r][c].image
                out[(r, c)] = Position(tile, None, image)
        return out
    image = None if reconstruction is None else reconstruction.image
    return {(0, 0): Position(capture, received.sample_mask, image)}


def local_positions(local: Any) -> dict[tuple[int, int], Any]:
    """The same split for a locally captured frame (single or mosaic)."""
    if hasattr(local, "tiles"):
        return {
            (r, c): tile
            for r, row in enumerate(local.tiles)
            for c, tile in enumerate(row)
        }
    return {(0, 0): local}


def truth_image(local: Any) -> np.ndarray:
    """Ground-truth TDC-code image of a local capture."""
    if hasattr(local, "tiles"):
        return local.digital_image().astype(np.float64)
    return np.asarray(local.digital_image, dtype=np.float64)


def lsb_bound(phi: np.ndarray, probability: float) -> np.ndarray:
    """Per-sample upper bound on the late-detection LSB bumps."""
    selected = phi.sum(axis=1)
    mean = selected * probability
    sigma = np.sqrt(selected * probability * (1.0 - probability))
    return np.ceil(mean + LSB_SIGMAS * sigma) + 1.0


def check_position(
    label: str,
    got: Position,
    local: Any,
    ref_seed: np.ndarray,
    *,
    keyframe: bool,
    n_samples: int,
    report: Report,
) -> np.ndarray | None:
    """Check one frame at one position; return the reference next seed."""
    frame = got.frame
    problems = report.problems
    if frame.n_samples != n_samples:
        problems.append(f"{label}: {frame.n_samples} samples, configured {n_samples}")
        return None
    if frame.rule_number != rule30_ref.RULE_NUMBER:
        problems.append(f"{label}: CA rule {frame.rule_number}, expected 30")
        return None
    if keyframe:
        if not np.array_equal(frame.seed_state, local.seed_state):
            problems.append(f"{label}: keyframe seed differs from the sensor's seed")
    else:
        report.n_seedless_checked += 1
        if not np.array_equal(frame.seed_state, ref_seed):
            problems.append(
                f"{label}: re-derived seed differs from the Rule-30 continuation"
            )
    rows, cols = frame.config.rows, frame.config.cols
    states = rule30_ref.pattern_states(
        ref_seed,
        frame.n_samples,
        steps_per_sample=frame.steps_per_sample,
        warmup_steps=frame.warmup_steps,
    )
    phi = rule30_ref.measurement_matrix(states, rows, cols)
    mask = (
        np.ones(frame.n_samples, dtype=bool)
        if got.mask is None
        else np.asarray(got.mask, dtype=bool)
    )
    samples = np.asarray(frame.samples, dtype=np.float64)
    x_digital = np.asarray(local.digital_image, dtype=np.float64).reshape(-1)
    ideal = phi @ x_digital
    deviation = (samples - ideal)[mask]
    bound = lsb_bound(phi, float(frame.metadata.get("lsb_error_probability", 0.0)))
    if deviation.size == 0:
        problems.append(f"{label}: no surviving samples")
    elif deviation.min() < 0 or np.any(deviation > bound[mask]):
        problems.append(
            f"{label}: samples leave Φ_ref·x by [{deviation.min():.0f}, "
            f"{deviation.max():.0f}] LSB, outside the LSB error bound"
        )
    elif (
        got.mask is None
        and "n_lsb_errors" in frame.metadata
        and not frame.metadata.get("n_saturated_pixels")
        and int(round(deviation.sum())) != int(frame.metadata["n_lsb_errors"])
    ):
        problems.append(
            f"{label}: samples carry {deviation.sum():.0f} LSB bumps, the "
            f"capture statistics say {frame.metadata['n_lsb_errors']}"
        )
    if not np.array_equal(frame.samples[mask], np.asarray(local.samples)[mask]):
        problems.append(f"{label}: samples differ from the local capture")
    if got.image is None:
        problems.append(f"{label}: no reconstruction")
    else:
        predicted = phi @ np.asarray(got.image, dtype=np.float64).reshape(-1)
        kept = samples[mask]
        error = predicted[mask] - kept
        residual = float(
            np.linalg.norm(error - error.mean())
            / max(np.linalg.norm(kept - kept.mean()), 1.0)
        )
        offset = abs(float(error.mean())) / max(abs(float(kept.mean())), 1.0)
        if not residual <= RESIDUAL_TOL:
            problems.append(
                f"{label}: reconstruction residual {residual:.3g} > {RESIDUAL_TOL}"
            )
        if not offset <= MEAN_TOL:
            problems.append(
                f"{label}: reconstruction misses the sample mean by "
                f"{offset:.3g} > {MEAN_TOL}"
            )
    return rule30_ref.next_seed(
        ref_seed,
        frame.n_samples,
        steps_per_sample=frame.steps_per_sample,
        warmup_steps=frame.warmup_steps,
    )


def check_stream(
    label: str,
    received: Sequence[Any],
    local: Sequence[Any],
    *,
    gop_size: int,
    n_samples: int,
    psnr_floor: float,
) -> Report:
    """Check every frame of one stream against the references.

    ``local`` holds one local capture per expected frame, in order; the
    stream must deliver exactly those frames.  ``n_samples`` is the
    configured sample count per frame position.
    """
    report = Report()
    indices = [frame.frame_index for frame in received]
    expected = list(range(len(local)))
    if sorted(indices) != expected:
        missing = sorted(set(expected) - set(indices))
        duplicated = sorted({i for i in indices if indices.count(i) > 1})
        extra = sorted(set(indices) - set(expected))
        report.problems.append(
            f"{label}: frames do not land exactly once (missing {missing}, "
            f"duplicated {duplicated}, unexpected {extra})"
        )
    by_index = {}
    for frame in received:
        by_index.setdefault(frame.frame_index, frame)
    ref_seeds: dict[tuple[int, int], np.ndarray | None] = {}
    for index in expected:
        got = by_index.get(index)
        if got is None:
            # The chain cannot be continued across a missing frame.
            ref_seeds.clear()
            continue
        keyframe = index % gop_size == 0
        got_positions = positions(got)
        want_positions = local_positions(local[index])
        if set(got_positions) != set(want_positions):
            report.problems.append(f"{label} frame {index}: tile grid differs")
            continue
        for key, position in got_positions.items():
            want = want_positions[key]
            seed = want.seed_state if keyframe else ref_seeds.get(key)
            if seed is None:
                report.problems.append(
                    f"{label} frame {index} tile {key}: no seed chain to continue"
                )
                continue
            ref_seeds[key] = check_position(
                f"{label} frame {index} tile {key}",
                position,
                want,
                seed,
                keyframe=keyframe,
                n_samples=n_samples,
                report=report,
            )
        if got.reconstruction is not None:
            quality = psnr_db(truth_image(local[index]), got.reconstruction.image)
            report.psnr.append(quality)
            if not quality >= psnr_floor:
                report.problems.append(
                    f"{label} frame {index}: PSNR {quality:.2f} dB below the "
                    f"{psnr_floor} dB floor"
                )
    return report


def check_loss_accounting(
    label: str,
    received: Sequence[Any],
    chunk_frames: dict[int, int],
    dropped: Sequence[int],
    n_lost_chunks: int,
) -> list[str]:
    """Received plus lost equals expected, and lost equals what was dropped.

    ``chunk_frames`` maps each frame-carrying chunk's sequence number (its
    segments and parity) to its frame index, read from the node's pre-loss
    recording; ``dropped`` is the seeded channel's own record of the send
    indices it dropped, which equal sequence numbers because the node sends
    one chunk per call.
    """
    problems = []
    lost_per_frame: dict[int, int] = {}
    for sequence in dropped:
        if sequence in chunk_frames:
            frame = chunk_frames[sequence]
            lost_per_frame[frame] = lost_per_frame.get(frame, 0) + 1
    expected_per_frame: dict[int, int] = {}
    for frame in chunk_frames.values():
        expected_per_frame[frame] = expected_per_frame.get(frame, 0) + 1
    for frame in received:
        loss = frame.loss
        if loss is None:
            problems.append(f"{label} frame {frame.frame_index}: no loss report")
            continue
        lost = lost_per_frame.get(frame.frame_index, 0)
        expected = expected_per_frame.get(frame.frame_index, 0)
        if loss.n_expected_chunks != expected:
            problems.append(
                f"{label} frame {frame.frame_index}: {loss.n_expected_chunks} "
                f"chunks expected, the node sent {expected}"
            )
        if loss.n_received_chunks + lost != loss.n_expected_chunks:
            problems.append(
                f"{label} frame {frame.frame_index}: received "
                f"{loss.n_received_chunks} + lost {lost} != expected "
                f"{loss.n_expected_chunks}"
            )
        delivered = (
            loss.n_samples_expected
            if frame.sample_mask is None
            else int(np.count_nonzero(frame.sample_mask))
        )
        if loss.n_samples_received != delivered:
            problems.append(
                f"{label} frame {frame.frame_index}: report says "
                f"{loss.n_samples_received} samples arrived, the mask holds "
                f"{delivered}"
            )
    if n_lost_chunks != len(dropped):
        problems.append(
            f"{label}: session lost {n_lost_chunks} chunks, the channel "
            f"dropped {len(dropped)}"
        )
    return problems
