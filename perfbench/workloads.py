"""The three closed-loop workloads, driven through the program's public API.

Each workload generates its inputs from the benchmark seed (scenes drawn by
the benchmark itself, sensor and channel seeds derived from it), makes a
local reference capture of the same scenes with the same sensor seeds (the
ground-truth code images), and then runs *rounds*: one round is the whole
stream (or fleet of streams) from the first scene to the last
reconstruction.  Every round replays the same inputs, so every run attempts
whole rounds of the same operations.

* ``video64`` — one :class:`CameraNode` streams a 64x64 video (512 samples
  per frame, GOP 4) to a default :class:`StreamReceiver`.
* ``mosaic256`` — one node streams a 256x256 tiled video (16 tiles of 64x64,
  compression 0.1, GOP 4) through ``stream_tiled_video`` to a default
  receiver, which solves each frame's tiles batched at the frame barrier.
* ``fleet40`` — 40 recorded 32x32 streams (25 % samples, GOP 4, 8 segments
  plus XOR parity, ~5 % seeded chunk loss applied while recording) replay
  concurrently into one resilient :class:`ReceiverHub` on one event loop.

Frames are timed from outside the program: a frame *enters* when the node
pulls its scene from the benchmark's scene iterator (``fleet40``: when the
replayer's first chunk of the frame is accepted by the transport) and is
*complete* when the executor job that produced its reconstruction returns
(:class:`seams.TimedExecutor`).
"""

from __future__ import annotations

import asyncio
import contextlib
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import (
    CameraNode,
    CompressiveImager,
    LoopbackTransport,
    ReceiverHub,
    SensorConfig,
    StreamReceiver,
    TiledSensorArray,
)
from repro.sensor.video import VideoSequencer
from repro.stream import (
    ChunkDecoder,
    ChunkType,
    LossyTransport,
    decode_frame_parity,
    decode_frame_segment,
)
from repro.stream.protocol import decode_frame_complete
from repro.telemetry import SPAN_TRANSPORT, Telemetry

import checks
from seams import MeteredTransport, RecordingSink, now

GOP_SIZE = 4


def derive_seed(seed: int, *names: object) -> int:
    """A 31-bit seed for one named input, derived from the benchmark seed."""
    key = "/".join(str(name) for name in names).encode()
    state = np.random.SeedSequence([int(seed), zlib.crc32(key)])
    return int(state.generate_state(1)[0] & 0x7FFFFFFF)


def natural_video(seed: int, n_frames: int, shape: tuple[int, int]) -> list[np.ndarray]:
    """A natural-statistics video, values in [0.05, 1].

    The scene is a panorama of 1/f^1.5 noise (amplitude falling with spatial
    frequency, as in natural images).  The camera pans one frame width per
    frame across it, jittering on a Gaussian random walk, so every frame
    shows new content.  Every frame is normalised to the same mean and
    contrast, the way an exposure control would, so reconstruction quality
    varies little from seed to seed.
    """
    rng = np.random.default_rng(seed)
    rows, cols = shape
    height = 2 * rows
    width = (n_frames + 1) * cols
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.rfftfreq(width)[None, :]
    radius = np.hypot(fy, fx)
    radius[0, 0] = 1.0
    spectrum = rng.normal(size=radius.shape) + 1j * rng.normal(size=radius.shape)
    spectrum /= radius**1.5
    spectrum[0, 0] = 0.0
    canvas = np.fft.irfft2(spectrum, s=(height, width))
    position = rng.integers(0, [height, width]).astype(float)
    frames = []
    for _ in range(int(n_frames)):
        shift = (-int(round(position[0])), -int(round(position[1])))
        window = np.roll(canvas, shift, axis=(0, 1))[:rows, :cols]
        window = (window - window.mean()) / window.std()
        frames.append(np.clip(0.5 + 0.15 * window, 0.05, 1.0))
        position += rng.normal(0.0, 1.5, size=2)
        position[1] += cols
    return frames


def stamped(scenes: Iterable[np.ndarray], entered: list[float]) -> Iterator[np.ndarray]:
    """Yield scenes, noting when the node takes each one."""
    for scene in scenes:
        entered.append(now())
        yield scene


@dataclass
class StreamOut:
    """One stream of one round as the receiver delivered it."""

    stream_id: int
    frames: list[Any]
    #: Frame index -> time the frame entered the system.
    entered: dict[int, float]
    n_lost_chunks: int = 0


@dataclass
class RoundOut:
    """Everything one round produced, plus the seams' readings."""

    wall_s: float
    streams: list[StreamOut]
    n_frames_attempted: int
    wire_bytes: int
    send_s: float
    #: Process CPU seconds the round took (filled in by the harness).
    cpu_s: float = 0.0
    #: Wire slices of the first stream, kept for the offline layer timings.
    wire: list[bytes] = field(default_factory=list)
    hub_stats: Any = None


class Workload:
    """Shared shape of a workload; subclasses fill in the streams."""

    name = ""
    #: Fewest rounds a run makes, whatever ``--seconds`` says.
    min_rounds = 1
    #: The percentile reported as ``frame_latency_tail_s``; ``None`` when a
    #: run has fewer than 40 frames and the tail would be no tail.
    tail_percentile: float | None = None
    psnr_floor = 0.0

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.seed = int(seed)

    # The pieces a subclass provides.
    async def make_warm_input(self) -> None:
        """Generate just what :meth:`warm_up` streams."""
        raise NotImplementedError

    async def make_inputs(self, telemetry: Telemetry | None = None) -> None:
        """Generate every input and the local reference captures."""
        raise NotImplementedError

    async def warm_up(self) -> None:
        raise NotImplementedError

    async def run_round(
        self, telemetry: Telemetry | None = None, *, keep_wire: bool = False
    ) -> RoundOut:
        raise NotImplementedError

    def check(self, out: RoundOut) -> checks.Report:
        raise NotImplementedError

    @property
    def frames_per_round(self) -> int:
        raise NotImplementedError


class SingleNode(Workload):
    """One camera node streaming to one default :class:`StreamReceiver`."""

    n_frames = 0
    n_samples = 0

    @property
    def frames_per_round(self) -> int:
        return self.n_frames

    def make_scenes(self) -> list[np.ndarray]:
        raise NotImplementedError

    def capture_locally(self) -> list[Any]:
        """The reference: the same scenes captured in-process, same seeds."""
        raise NotImplementedError

    async def send(self, node: CameraNode, scenes: Iterable[np.ndarray]) -> Any:
        """Stream ``scenes`` from a freshly built sensor through ``node``."""
        raise NotImplementedError

    async def make_warm_input(self) -> None:
        self.scenes = self.make_scenes()

    async def make_inputs(self, telemetry: Telemetry | None = None) -> None:
        await self.make_warm_input()
        self.local = self.capture_locally()

    async def _stream(
        self,
        scenes: list[np.ndarray],
        telemetry: Telemetry | None,
        keep_wire: bool,
    ) -> RoundOut:
        entered: list[float] = []
        loopback = LoopbackTransport()
        wire = MeteredTransport(loopback, keep=keep_wire)
        node = CameraNode(wire, gop_size=GOP_SIZE, telemetry=telemetry)
        receiver = StreamReceiver(telemetry=telemetry)
        started = now()
        _, result = await asyncio.gather(
            self.send(node, stamped(scenes, entered)), receiver.run(loopback)
        )
        return RoundOut(
            wall_s=now() - started,
            streams=[StreamOut(1, result.frames, dict(enumerate(entered)))],
            n_frames_attempted=len(scenes),
            wire_bytes=wire.bytes_sent,
            send_s=wire.send_s,
            wire=wire.slices,
        )

    async def warm_up(self) -> None:
        await self._stream(self.scenes[:1], None, False)

    async def run_round(
        self, telemetry: Telemetry | None = None, *, keep_wire: bool = False
    ) -> RoundOut:
        return await self._stream(self.scenes, telemetry, keep_wire)

    def check(self, out: RoundOut) -> checks.Report:
        return checks.check_stream(
            self.name,
            out.streams[0].frames,
            self.local,
            gop_size=GOP_SIZE,
            n_samples=self.n_samples,
            psnr_floor=self.psnr_floor,
        )


class Video64(SingleNode):
    """The paper's single chip: full-frame FISTA/DCT solves per frame."""

    name = "video64"
    min_rounds = 3
    tail_percentile = 75.0
    psnr_floor = 16.0

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        super().__init__(seed, tiny=tiny)
        self.shape = (64, 64)
        self.n_samples = 512
        self.n_frames = 4 if tiny else 16
        self.sensor_seed = derive_seed(seed, self.name, "sensor")

    def make_sequencer(self) -> VideoSequencer:
        config = SensorConfig(rows=self.shape[0], cols=self.shape[1])
        return VideoSequencer(
            CompressiveImager(config, seed=self.sensor_seed),
            samples_per_frame=self.n_samples,
            seed=self.sensor_seed,
        )

    def make_scenes(self) -> list[np.ndarray]:
        return natural_video(
            derive_seed(self.seed, self.name, "scenes"),
            self.n_frames,
            self.shape,
        )

    def capture_locally(self) -> list[Any]:
        return self.make_sequencer().capture_sequence(self.scenes).frames

    async def send(self, node: CameraNode, scenes: Iterable[np.ndarray]) -> Any:
        return await node.stream_video(self.make_sequencer(), scenes)


class Mosaic256(SingleNode):
    """Block-parallel capture: a tiled mosaic, batched multi-tile solves."""

    name = "mosaic256"
    min_rounds = 2
    psnr_floor = 16.0
    compression_ratio = 0.1

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        super().__init__(seed, tiny=tiny)
        self.shape = (128, 128) if tiny else (256, 256)
        self.tile_shape = (64, 64)
        self.n_frames = 2 if tiny else 4
        self.array_seed = derive_seed(seed, self.name, "array")
        tile_pixels = self.tile_shape[0] * self.tile_shape[1]
        self.n_samples = max(1, int(round(self.compression_ratio * tile_pixels)))

    def make_array(self) -> TiledSensorArray:
        return TiledSensorArray(
            self.shape,
            tile_shape=self.tile_shape,
            compression_ratio=self.compression_ratio,
            seed=self.array_seed,
        )

    def make_scenes(self) -> list[np.ndarray]:
        return natural_video(
            derive_seed(self.seed, self.name, "scenes"), self.n_frames, self.shape
        )

    def capture_locally(self) -> list[Any]:
        return self.make_array().capture_scene_sequence(self.scenes, advance=True)

    async def send(self, node: CameraNode, scenes: Iterable[np.ndarray]) -> Any:
        return await node.stream_tiled_video(self.make_array(), scenes)


@dataclass
class Recording:
    """One fleet stream as recorded before the timed window."""

    stream_id: int
    #: Surviving wire slices, each with the frame it carries (or ``None``).
    slices: list[tuple[bytes, int | None]]
    #: Every slice the node sent, before the channel dropped any.
    sent: list[bytes]
    #: Send indices (= chunk sequence numbers) the channel dropped.
    dropped: list[int]
    #: Sequence number -> frame index, for the frame's segments and parity.
    chunk_frames: dict[int, int]
    local: list[Any]


def chunk_frame(chunk: Any) -> int | None:
    """The frame index a recorded chunk belongs to, if it carries one."""
    if chunk.chunk_type is ChunkType.FRAME_SEGMENT:
        return decode_frame_segment(chunk.payload).frame_index
    if chunk.chunk_type is ChunkType.FRAME_PARITY:
        return decode_frame_parity(chunk.payload).frame_index
    if chunk.chunk_type is ChunkType.FRAME_COMPLETE:
        return decode_frame_complete(chunk.payload)[0]
    return None


class Fleet40(Workload):
    """Forty recorded lossy streams replayed into one resilient hub."""

    name = "fleet40"
    min_rounds = 2
    tail_percentile = 90.0
    psnr_floor = 14.0
    drop_rate = 0.05
    segments = 8

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        super().__init__(seed, tiny=tiny)
        self.n_streams = 4 if tiny else 40
        self.shape = (32, 32)
        self.n_frames = 4
        self.n_samples = self.shape[0] * self.shape[1] // 4

    @property
    def frames_per_round(self) -> int:
        return self.n_streams * self.n_frames

    def make_sequencer(self, stream_id: int) -> VideoSequencer:
        sensor_seed = derive_seed(self.seed, self.name, stream_id, "sensor")
        config = SensorConfig(rows=self.shape[0], cols=self.shape[1])
        return VideoSequencer(
            CompressiveImager(config, seed=sensor_seed),
            samples_per_frame=self.n_samples,
            seed=sensor_seed,
        )

    async def record(
        self, stream_id: int, n_frames: int, telemetry: Telemetry | None
    ) -> Recording:
        scenes = natural_video(
            derive_seed(self.seed, self.name, stream_id, "scenes"),
            self.n_frames,
            self.shape,
        )[:n_frames]
        sink = RecordingSink()
        channel = LossyTransport(
            sink,
            seed=derive_seed(self.seed, self.name, stream_id, "channel"),
            drop_rate=self.drop_rate,
        )
        tee = MeteredTransport(channel, keep=True)
        node = CameraNode(
            tee,
            stream_id=stream_id,
            gop_size=GOP_SIZE,
            segments_per_frame=self.segments,
            parity=True,
            telemetry=telemetry,
        )
        await node.stream_video(self.make_sequencer(stream_id), scenes)
        chunk_frames = {}
        for data in tee.slices:
            (chunk,) = ChunkDecoder().feed(data)
            if chunk.chunk_type in (ChunkType.FRAME_SEGMENT, ChunkType.FRAME_PARITY):
                chunk_frames[chunk.sequence] = chunk_frame(chunk)
        slices = []
        for data in sink.slices:
            (chunk,) = ChunkDecoder().feed(data)
            slices.append((data, chunk_frame(chunk)))
        local = self.make_sequencer(stream_id).capture_sequence(scenes).frames
        return Recording(
            stream_id, slices, tee.slices, list(channel.dropped), chunk_frames, local
        )

    async def make_inputs(self, telemetry: Telemetry | None = None) -> None:
        self.recordings = [
            await self.record(stream_id, self.n_frames, telemetry)
            for stream_id in range(1, self.n_streams + 1)
        ]
        await self.make_warm_input()

    async def make_warm_input(self) -> None:
        self.warm_recording = await self.record(1, 1, None)

    async def _replay(
        self, recordings: list[Recording], telemetry: Telemetry | None
    ) -> RoundOut:
        hub = ReceiverHub(resilient=True, telemetry=telemetry)
        send_s = [0.0]

        async def one(recording: Recording) -> StreamOut:
            loopback = LoopbackTransport()
            entered: dict[int, float] = {}
            stream_id = recording.stream_id

            async def replay() -> None:
                for data, frame_index in recording.slices:
                    first = frame_index is not None and frame_index not in entered
                    if first and telemetry is not None:
                        # The replayer stands in for the node, which opens
                        # the transport span right before a frame's first send.
                        telemetry.begin_span(stream_id, frame_index, SPAN_TRANSPORT)
                    started = now()
                    await loopback.send(data)
                    accepted = now()
                    send_s[0] += accepted - started
                    if first:
                        entered[frame_index] = accepted
                await loopback.close()

            sender = asyncio.ensure_future(replay())
            try:
                results = await hub.attach(loopback)
            except BaseException:
                # Nothing drains the pipe any more: a blocked replayer would
                # wait forever.
                sender.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await sender
                raise
            await sender
            frames = [frame for result in results for frame in result.frames]
            return StreamOut(stream_id, frames, entered)

        started = now()
        try:
            streams = await asyncio.gather(*(one(r) for r in recordings))
        finally:
            await hub.close()
        wall = now() - started
        for stream in streams:
            stats = hub.session_stats.get(stream.stream_id)
            stream.n_lost_chunks = -1 if stats is None else stats.n_lost_chunks
        return RoundOut(
            wall_s=wall,
            streams=list(streams),
            n_frames_attempted=sum(len(r.local) for r in recordings),
            wire_bytes=sum(len(data) for r in recordings for data in r.sent),
            send_s=send_s[0],
            wire=list(recordings[0].sent),
            hub_stats=hub.stats(),
        )

    async def warm_up(self) -> None:
        await self._replay([self.warm_recording], None)

    async def run_round(
        self, telemetry: Telemetry | None = None, *, keep_wire: bool = False
    ) -> RoundOut:
        return await self._replay(self.recordings, telemetry)

    def check(self, out: RoundOut) -> checks.Report:
        report = checks.Report()
        by_id = {stream.stream_id: stream for stream in out.streams}
        for recording in self.recordings:
            label = f"{self.name} stream {recording.stream_id}"
            stream = by_id.get(recording.stream_id)
            if stream is None:
                report.problems.append(f"{label}: no result")
                continue
            report.extend(
                checks.check_stream(
                    label,
                    stream.frames,
                    recording.local,
                    gop_size=GOP_SIZE,
                    n_samples=self.n_samples,
                    psnr_floor=self.psnr_floor,
                )
            )
            report.problems.extend(
                checks.check_loss_accounting(
                    label,
                    stream.frames,
                    recording.chunk_frames,
                    recording.dropped,
                    stream.n_lost_chunks,
                )
            )
        return report


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Video64, Mosaic256, Fleet40)
}
