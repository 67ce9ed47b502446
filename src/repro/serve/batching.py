"""Request batching and backpressure for the query server.

NumPy-heavy query kernels run on a thread pool; the event loop only
parses, routes, and frames.  Two mechanisms sit between them:

* **same-block batching** — queries are grouped by *batch key* (the
  snapshot etag plus the gid set they touch).  Arrivals within
  :data:`WINDOW_S` ride one executor dispatch: the first query faults the
  blocks into the cache and the rest reuse them while the arrays are hot
  in LLC, instead of interleaving with unrelated work.  One batch is one
  ``serve.batch.dispatches``; ``serve.batch.size`` records occupancy.
  The window also paces the event loop: under the GIL it throttles the
  light connections while a heavy kernel runs (without it the pipeline
  benchmark's ``serve_mix`` heavy p50 was 18 % slower on a 2-vCPU box).
* **bounded in-flight queue** — at most ``max_inflight`` queries may be
  queued-or-running.  Beyond that, :meth:`QueryBatcher.submit` raises
  :class:`ServerBusy` and the protocol layer answers **503 with
  Retry-After** — load-shedding at admission, before any memory or pool
  slot is committed, which is what keeps p99 bounded when offered load
  exceeds capacity.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Hashable

from ..observe import registry

__all__ = ["QueryBatcher", "ServerBusy", "WINDOW_S"]

#: Seconds a batch key's first job waits for same-key arrivals.
WINDOW_S = 0.002


class ServerBusy(RuntimeError):
    """The in-flight queue is full; the client should retry after a
    short delay."""

    def __init__(self, inflight: int, limit: int, retry_after_s: float):
        super().__init__(
            f"{inflight} queries in flight (limit {limit}); retry after "
            f"{retry_after_s:.3f}s"
        )
        self.retry_after_s = retry_after_s


class _Job:
    __slots__ = ("fn", "future")

    def __init__(self, fn: Callable[[], Any], future: asyncio.Future):
        self.fn = fn
        self.future = future


class QueryBatcher:
    """Groups same-key jobs inside a window, runs batches on a pool."""

    def __init__(
        self,
        max_workers: int = 4,
        max_inflight: int = 128,
        retry_after_s: float = 0.05,
    ):
        if max_inflight <= 0:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        self.max_inflight = int(max_inflight)
        self.retry_after_s = float(retry_after_s)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="serve-query"
        )
        self._pending: dict[Hashable, list[_Job]] = {}
        self._inflight = 0
        reg = registry()
        self._m_dispatches = reg.counter("serve.batch.dispatches")
        self._m_batched = reg.counter("serve.batch.jobs")
        self._m_size = reg.histogram("serve.batch.size")
        self._m_busy = reg.counter("serve.busy_rejections")
        self._m_inflight = reg.gauge("serve.inflight")

    @property
    def inflight(self) -> int:
        return self._inflight

    async def submit(self, batch_key: Hashable, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on the pool, batched with same-key jobs; returns its
        result.  Raises :class:`ServerBusy` at the admission limit."""
        if self._inflight >= self.max_inflight:
            self._m_busy.inc()
            raise ServerBusy(
                self._inflight, self.max_inflight, self.retry_after_s
            )
        loop = asyncio.get_running_loop()
        job = _Job(fn, loop.create_future())
        self._inflight += 1
        self._m_inflight.set_max(self._inflight)
        queue = self._pending.get(batch_key)
        if queue is None:
            # First job for this key opens the window; it flushes the
            # whole group after WINDOW_S regardless of later arrivals.
            self._pending[batch_key] = [job]
            loop.call_later(WINDOW_S, self._flush, batch_key, loop)
        else:
            queue.append(job)
        return await job.future

    # ------------------------------------------------------------------
    def _flush(self, batch_key: Hashable, loop: asyncio.AbstractEventLoop) -> None:
        jobs = self._pending.pop(batch_key, [])
        if not jobs:
            return
        self._m_dispatches.inc()
        self._m_batched.inc(len(jobs))
        self._m_size.observe(len(jobs))
        self._executor.submit(self._run_batch, jobs, loop)

    def _run_batch(
        self, jobs: list[_Job], loop: asyncio.AbstractEventLoop
    ) -> None:
        for job in jobs:
            try:
                result = job.fn()
            except BaseException as exc:
                loop.call_soon_threadsafe(self._finish, job, None, exc)
            else:
                loop.call_soon_threadsafe(self._finish, job, result, None)

    def _finish(
        self, job: _Job, result: Any, exc: BaseException | None
    ) -> None:
        self._inflight -= 1
        if job.future.cancelled():
            return
        if exc is not None:
            job.future.set_exception(exc)
        else:
            job.future.set_result(result)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)
