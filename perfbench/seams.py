"""Measurement seams the benchmark owns: nothing here edits the program.

* :class:`TimedExecutor` is installed as the event loop's default executor,
  which the camera node (capture) and the hub's solve scheduler (solves) both
  use when built with their default ``executor=None``.  It records when
  every job started and ended and which object it returned, so a frame's
  reconstruction can be timed to the moment its solve finished without
  turning the program's telemetry on.
* :class:`MeteredTransport` wraps the bounded loopback pipe on the node side:
  it counts the bytes the node put on the wire, keeps a copy of them for the
  offline decode timings, and times how long ``send`` was suspended by
  backpressure.
* :class:`LoopLagProbe` is a ticker coroutine on the same event loop that
  records how late each of its wake-ups ran.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

now = time.perf_counter


@dataclass
class Job:
    """One executor job: its timeline and, for a solve, what it returned."""

    started: float = 0.0
    ended: float = 0.0
    is_solve: bool = False
    result: Any = None


class TimedExecutor(ThreadPoolExecutor):
    """The default thread pool, sized as asyncio sizes it, with a job log.

    ``solve_types`` are the result types that mark a job as a solve; the log
    keeps those results so :func:`solve_end_times` can map a reconstruction
    back to its job by identity.
    """

    def __init__(self, solve_types: tuple[type, ...]) -> None:
        super().__init__(thread_name_prefix="perfbench-default")
        self.solve_types = solve_types
        self.jobs: list[Job] = []
        self._lock = threading.Lock()

    @property
    def n_workers(self) -> int:
        return int(self._max_workers)

    def submit(self, fn: Any, /, *args: Any, **kwargs: Any) -> Any:
        job = Job()
        with self._lock:
            self.jobs.append(job)

        def timed() -> Any:
            job.started = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                job.ended = now()
            if isinstance(result, self.solve_types):
                job.is_solve = True
                job.result = result
            return result

        return super().submit(timed)

    def take_jobs(self) -> list[Job]:
        """Every job logged since the last call (and forget them)."""
        with self._lock:
            jobs, self.jobs = self.jobs, []
        return jobs


def solve_end_times(jobs: list[Job]) -> dict[int, float]:
    """``id(reconstruction) -> end time`` of the solve job that produced it."""
    return {id(job.result): job.ended for job in jobs if job.is_solve}


def peak_concurrency(jobs: list[Job]) -> int:
    """Largest number of solve jobs running at one instant."""
    events = []
    for job in jobs:
        if job.is_solve:
            events.append((job.started, 1))
            events.append((job.ended, -1))
    # Ends sort before starts at equal times: touching intervals do not overlap.
    events.sort(key=lambda event: (event[0], event[1]))
    running = peak = 0
    for _, delta in events:
        running += delta
        peak = max(peak, running)
    return peak


class MeteredTransport:
    """A node-side transport wrapper: bytes, a copy of them, blocked time."""

    def __init__(self, inner: Any, *, keep: bool = False) -> None:
        self.inner = inner
        self.keep = keep
        self.slices: list[bytes] = []
        self.bytes_sent = 0
        self.send_s = 0.0

    async def send(self, data: bytes) -> None:
        started = now()
        await self.inner.send(data)
        self.send_s += now() - started
        self.bytes_sent += len(data)
        if self.keep:
            self.slices.append(bytes(data))

    async def recv(self) -> bytes | None:
        return await self.inner.recv()

    async def close(self) -> None:
        await self.inner.close()


class RecordingSink:
    """A transport end that only records what is sent into it."""

    def __init__(self) -> None:
        self.slices: list[bytes] = []

    async def send(self, data: bytes) -> None:
        self.slices.append(bytes(data))

    async def recv(self) -> bytes | None:
        return None

    async def close(self) -> None:
        return None


class LoopLagProbe:
    """Records how late a ``period``-second ticker wakes up on the loop."""

    def __init__(self, period: float = 0.01) -> None:
        self.period = period
        self.lags: list[float] = []
        self._task: asyncio.Task[None] | None = None

    async def _tick(self) -> None:
        while True:
            due = now() + self.period
            await asyncio.sleep(self.period)
            self.lags.append(max(0.0, now() - due))

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._tick())

    async def stop(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
