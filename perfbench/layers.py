"""Per-layer metrics of a traced run (``--trace 1``).

Three sources, all outside the program's code:

* the seams of the untraced window (:mod:`seams`): executor jobs give the
  capture and solve times and the solve concurrency, the node-side transport
  wrapper the time sends sat blocked, the ticker the event-loop lag;
* the program's own :class:`~repro.telemetry.FrameTracer` stages from the
  traced window, collected through the public ``telemetry=`` parameters;
* timed calls into each layer's public functions, made by this module on the
  run's own wire bytes and received frames: chunk parsing
  (``ChunkDecoder.feed``), frame decoding (``decode_frame`` /
  ``decode_frame_prefix`` + ``unpack_samples``), the seed-chain walk
  (``advance_seed_state``), the Φ factor rebuild (``ca_selection_factors``)
  and solves run one at a time (``reconstruct_frame`` /
  ``solve_tiles_batched``).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

import numpy as np

from repro.ca.selection import ca_selection_factors
from repro.io import decode_frame, unpack_samples
from repro.io.framing import decode_frame_prefix
from repro.recon import reconstruct_frame, solve_tiles_batched
from repro.stream import ChunkDecoder, ChunkType, advance_seed_state, decode_frame_segment
from repro.stream.protocol import decode_frame_data
from repro.telemetry import STAGES

from checks import positions
from seams import now, peak_concurrency
from workloads import GOP_SIZE

#: Frames re-solved one at a time for ``cs.solve_alone_s_per_frame``.
ALONE_FRAMES = 4


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def _streams_frames(measured: Any) -> list[list[Any]]:
    """The frame lists of every stream of the window's first round."""
    return [stream.frames for stream in measured.rounds[0].streams]


def seed_advance_s(streams: list[list[Any]]) -> float:
    """Mean time to walk every seed chain into one seedless frame."""
    total, count = 0.0, 0
    for frames in streams:
        by_index = {frame.frame_index: frame for frame in frames}
        for frame in frames:
            previous = by_index.get(frame.frame_index - 1)
            if frame.frame_index % GOP_SIZE == 0 or previous is None:
                continue
            for position in positions(previous).values():
                tile = position.frame
                started = now()
                advance_seed_state(
                    tile.seed_state,
                    tile.rule_number,
                    n_samples=tile.n_samples,
                    steps_per_sample=tile.steps_per_sample,
                    warmup_steps=tile.warmup_steps,
                )
                total += now() - started
            count += 1
    return _per(total, count)


def ca_factors_s(streams: list[list[Any]]) -> float:
    """Mean time to rebuild every position's Φ factors for one frame."""
    total, count = 0.0, 0
    for frames in streams:
        for frame in frames:
            for position in positions(frame).values():
                tile = position.frame
                started = now()
                ca_selection_factors(
                    tile.n_samples,
                    tile.config.rows,
                    tile.config.cols,
                    tile.seed_state,
                    rule=tile.rule_number,
                    steps_per_sample=tile.steps_per_sample,
                    warmup_steps=tile.warmup_steps,
                )
                total += now() - started
            count += 1
    return _per(total, count)


def wire_layers(wire: list[bytes], frames: list[Any]) -> dict[str, float]:
    """Chunk parsing, frame decoding and chunk counts over recorded bytes."""
    seeds = {}
    for frame in frames:
        for key, position in positions(frame).items():
            seeds[(frame.frame_index, *key)] = position.frame.seed_state
    decoder = ChunkDecoder()
    parse_s = 0.0
    chunks = []
    parity_bytes = 0
    for data in wire:
        started = now()
        parsed = decoder.feed(data)
        parse_s += now() - started
        chunks.extend(parsed)
        # The node sends one chunk per slice, header included.
        if any(chunk.chunk_type is ChunkType.FRAME_PARITY for chunk in parsed):
            parity_bytes += len(data)
    decode_s = 0.0
    for chunk in chunks:
        if chunk.chunk_type is ChunkType.FRAME_DATA:
            data = decode_frame_data(chunk.payload)
            key = (data.frame_index, data.grid_row, data.grid_col)
            seed = None if data.keyframe else seeds[key]
            started = now()
            decode_frame(data.frame_bytes, seed_state=seed)
            decode_s += now() - started
        elif chunk.chunk_type is ChunkType.FRAME_SEGMENT:
            segment = decode_frame_segment(chunk.payload)
            key = (segment.frame_index, segment.grid_row, segment.grid_col)
            seed = None if segment.keyframe else seeds.get(key)
            if not segment.keyframe and seed is None:
                continue
            started = now()
            prefix = decode_frame_prefix(segment.prefix_bytes, seed_state=seed)
            unpack_samples(
                segment.sample_bytes, segment.n_samples, prefix.header.sample_bits
            )
            decode_s += now() - started
    n_frames = len({frame.frame_index for frame in frames})
    return {
        "protocol.chunk_decode_s_per_chunk": _per(parse_s, len(chunks)),
        "io.frame_decode_s_per_frame": _per(decode_s, n_frames),
        "protocol.chunks_per_frame": _per(len(chunks), n_frames),
        "wire.parity_bytes_per_frame": _per(parity_bytes, n_frames),
    }


def solve_alone_s(frames: list[Any]) -> float:
    """Mean time to solve a few of the run's frames one at a time."""
    times = []
    for frame in frames[:ALONE_FRAMES]:
        tiles = positions(frame)
        started = now()
        if len(tiles) > 1:
            solve_tiles_batched([position.frame for position in tiles.values()])
        else:
            reconstruct_frame(frame.capture, sample_mask=frame.sample_mask)
        times.append(now() - started)
    return statistics.fmean(times) if times else 0.0


def iterations(frame: Any) -> int:
    reconstruction = frame.reconstruction
    if reconstruction is None:
        return 0
    if hasattr(reconstruction, "tile_results"):
        return sum(
            tile.solver_result.n_iterations
            for row in reconstruction.tile_results
            for tile in row
        )
    return reconstruction.solver_result.n_iterations


def samples_delivered_ratio(frames: list[Any], configured: int) -> float:
    """Samples that reached the solve over samples the node captured."""
    delivered = expected = 0
    for frame in frames:
        for position in positions(frame).values():
            expected += configured
            mask = position.mask
            delivered += (
                position.frame.n_samples if mask is None else int(np.count_nonzero(mask))
            )
    return _per(delivered, expected)


def stage_durations(telemetries: list[Any]) -> dict[str, list[float]]:
    durations: dict[str, list[float]] = {stage: [] for stage in STAGES}
    for telemetry in telemetries:
        if telemetry is None:
            continue
        for trace in telemetry.tracer.traces():
            for stage, seconds in trace.as_dict().items():
                durations.setdefault(stage, []).append(seconds)
    return durations


def per_layer(
    workload: Any,
    untraced: Any,
    traced: Any,
    input_jobs: list[Any],
    recording: Any,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    frames = untraced.frames
    solved = max(untraced.solved, 1)
    attempted = max(untraced.attempted, 1)
    jobs = [job for round_jobs in untraced.jobs for job in round_jobs]
    capture_jobs = [job for job in jobs if not job.is_solve]
    capture_frames = attempted
    if not capture_jobs:
        # fleet40 captures while recording, before the timed window.
        capture_jobs = [job for job in input_jobs if not job.is_solve]
        capture_frames = workload.frames_per_round + 1
    streams = _streams_frames(untraced)
    stages = stage_durations(traced.telemetries)
    if recording is not None:
        for stage, seconds in stage_durations([recording]).items():
            if not stages.get(stage):
                stages[stage] = seconds
    hub_counts = [out.hub_stats for out in untraced.rounds if out.hub_stats is not None]
    traced_per_frame = traced.wall_s / max(traced.solved, 1)
    untraced_per_frame = untraced.wall_s / solved
    metrics = {
        "sensor.capture_s_per_frame": (
            _per(sum(job.ended - job.started for job in capture_jobs), capture_frames),
            "s",
        ),
        "ca.factors_s_per_frame": (ca_factors_s(streams), "s"),
        "protocol.seed_advance_s_per_frame": (seed_advance_s(streams), "s"),
        "transport.send_blocked_s_per_frame": (
            sum(out.send_s for out in untraced.rounds) / attempted,
            "s",
        ),
        "loop.lag_p99_s": (float(np.percentile(untraced.lags, 99)), "s"),
        "loop.lag_max_s": (max(untraced.lags), "s"),
        "hub.queue_wait_s_per_frame": (
            sum(stages.get("queue_wait", [])) / max(traced.solved, 1),
            "s",
        ),
        "cs.solve_s_per_frame": (
            sum(job.ended - job.started for job in jobs if job.is_solve) / solved,
            "s",
        ),
        "cs.solve_alone_s_per_frame": (solve_alone_s(streams[0]), "s"),
        "cs.iterations_per_frame": (
            statistics.fmean(iterations(frame) for frame in frames),
            "count",
        ),
        "cs.solves_concurrent_peak": (
            max(peak_concurrency(round_jobs) for round_jobs in untraced.jobs),
            "count",
        ),
        "session.samples_delivered_ratio": (
            samples_delivered_ratio(frames, workload.n_samples),
            "ratio",
        ),
        "session.parity_recovered_chunks": (
            statistics.fmean(s.n_recovered_chunks for s in hub_counts)
            if hub_counts
            else 0.0,
            "count",
        ),
        "session.partial_frames": (
            statistics.fmean(s.n_partial_frames for s in hub_counts)
            if hub_counts
            else 0.0,
            "count",
        ),
    }
    units = {
        "protocol.chunk_decode_s_per_chunk": "s",
        "io.frame_decode_s_per_frame": "s",
        "protocol.chunks_per_frame": "count",
        "wire.parity_bytes_per_frame": "bytes",
    }
    wire = wire_layers(untraced.rounds[0].wire, streams[0])
    metrics.update({name: (value, units[name]) for name, value in wire.items()})
    for stage in STAGES:
        values = stages.get(stage, [])
        metrics[f"trace.{stage}_s_p50"] = (
            float(statistics.median(values)) if values else 0.0,
            "s",
        )
    metrics["trace.overhead_ratio"] = (traced_per_frame / untraced_per_frame, "ratio")
    return metrics


def write_spans(
    path: Path, traced: Any, recording: Any, environment: dict[str, object]
) -> None:
    """Write every traced frame's spans (start/end on the run's clock)."""
    rounds = []
    sources = [("recording", recording)] + [
        (f"round{index}", telemetry)
        for index, telemetry in enumerate(traced.telemetries)
    ]
    for label, telemetry in sources:
        if telemetry is None:
            continue
        rounds.append(
            {
                "source": label,
                "frames": [
                    {
                        "stream": trace.stream_id,
                        "frame": trace.frame_index,
                        "spans": {
                            name: [span.start, span.end]
                            for name, span in trace.spans.items()
                        },
                    }
                    for trace in telemetry.tracer.traces()
                ],
            }
        )
    path.write_text(json.dumps({"environment": environment, "traces": rounds}))
