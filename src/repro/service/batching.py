"""Admission queue and micro-batching for the online matcher.

The batch study showed the matcher's batched entry points amortize
per-call overhead across many comparisons; an online server naturally
receives comparisons one at a time.  :class:`MicroBatcher` closes that
gap: concurrent in-flight requests enqueue *pair jobs* (one per
probe/gallery comparison — a verify is one job, a 1:N identify fans out
into one job per candidate), and a collector dispatches them as soon
as the matcher is free: it takes up to ``max_batch`` queued jobs into a
single :meth:`~repro.matcher.engine.BioEngineMatcher.score_pairs` call
on the worker executor.  Jobs that arrive while a batch runs queue up
and ride the next dispatch together, so batch size follows load with
no timer: a lone request on an idle server is dispatched at once, and
under load one executor round-trip serves a whole batch of comparisons
instead of one event-loop/worker handoff per comparison.

Overload and deadlines reuse the study's error taxonomy
(:mod:`repro.runtime.errors`): a full admission queue raises
:class:`ServiceOverloadError` (transient — back off and retry, HTTP
503) instead of letting latency grow without bound, and a job that
outlives its request deadline raises :class:`DeadlineExceededError`
(transient, HTTP 504) without wasting matcher time on an answer nobody
is waiting for.

Knobs come from ``REPRO_SERVE_*`` environment variables via
:meth:`BatchingConfig.from_environment`; setting
``REPRO_SERVE_BATCHING=0`` switches to fully unbatched serving — one
scalar matcher call and one worker round trip per comparison, nothing
shared or collapsed — the control arm of the load benchmark.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from collections import deque

from ..matcher.types import Template
from ..runtime.config import env_float, env_int
from ..runtime.errors import ConfigurationError, TransientError
from ..runtime.telemetry import (
    TraceContext,
    current_trace,
    get_logger,
)
from .stats import (
    BATCH_WAIT,
    ENQUEUE_DEPTH,
    MATCH_TIME,
    OVERLOADS,
    ServiceStats,
)

_log = get_logger("service.batching")


class ServiceOverloadError(TransientError):
    """The admission queue is full; the client should back off and retry."""


class DeadlineExceededError(TransientError):
    """A request outlived its deadline before the matcher answered."""


@dataclass(frozen=True)
class BatchingConfig:
    """Micro-batching knobs (all overridable via ``REPRO_SERVE_*``).

    Attributes
    ----------
    max_batch:
        Largest number of pair jobs dispatched in one matcher call
        (``REPRO_SERVE_MAX_BATCH``).
    queue_depth:
        Admission bound on queued pair jobs (``REPRO_SERVE_QUEUE_DEPTH``);
        arrivals beyond it are refused with
        :class:`ServiceOverloadError`.  A request larger than the
        bound is admitted only into an empty queue, so it can never be
        refused forever.
    timeout_s:
        Default per-request deadline (``REPRO_SERVE_TIMEOUT_S``).
    enabled:
        Whether cross-request coalescing runs at all
        (``REPRO_SERVE_BATCHING``, 0 disables).
    """

    max_batch: int = 32
    queue_depth: int = 256
    timeout_s: float = 30.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.timeout_s <= 0:
            raise ConfigurationError(f"timeout_s must be > 0, got {self.timeout_s}")

    @classmethod
    def from_environment(cls, **defaults: object) -> "BatchingConfig":
        """Build a config; ``REPRO_SERVE_*`` variables win over defaults."""
        params: dict = dict(defaults)
        max_batch = env_int("REPRO_SERVE_MAX_BATCH")
        if max_batch is not None:
            params["max_batch"] = max_batch
        queue_depth = env_int("REPRO_SERVE_QUEUE_DEPTH")
        if queue_depth is not None:
            params["queue_depth"] = queue_depth
        timeout_s = env_float("REPRO_SERVE_TIMEOUT_S")
        if timeout_s is not None:
            params["timeout_s"] = timeout_s
        batching = env_int("REPRO_SERVE_BATCHING")
        if batching is not None:
            params["enabled"] = bool(batching)
        return cls(**params)  # type: ignore[arg-type]


@dataclass
class _Job:
    """One queued probe/gallery comparison awaiting a batch slot."""

    probe: Template
    gallery: Template
    future: "asyncio.Future[float]"
    deadline: float
    #: Trace of the request that enqueued this comparison (``None``
    #: when tracing is off or the caller is not a traced request).
    trace: Optional[TraceContext] = None
    #: ``time.perf_counter()`` at enqueue — queue age is measured from
    #: here when the collector claims the job into a batch.
    enqueued: float = field(default_factory=time.perf_counter)


class MicroBatcher:
    """Coalesces concurrent comparisons into batched matcher dispatches.

    Single-event-loop component: :meth:`score` must be awaited from the
    loop that called :meth:`start`.  The matcher itself runs on a
    one-thread executor, which both keeps the event loop responsive
    during a match and serializes access to the engine's (thread-naive)
    frame cache.
    """

    def __init__(
        self,
        matcher,
        stats: Optional[ServiceStats] = None,
        config: Optional[BatchingConfig] = None,
        *,
        name: str = "",
        sequence: Optional[Callable[[], int]] = None,
    ) -> None:
        self._matcher = matcher
        self._stats = stats if stats is not None else ServiceStats()
        self._config = config if config is not None else BatchingConfig()
        self._queue: Deque[_Job] = deque()
        self._wake = asyncio.Event()
        prefix = f"repro-match-{name}" if name else "repro-match"
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=prefix
        )
        self._collector: Optional[asyncio.Task] = None
        self._closed = False
        self._batch_seq = 0
        # Sharded serving runs one batcher per worker; a shared sequence
        # keeps batch ids unique across the pool so traces and stats
        # never show two concurrent batches under one id.
        self._next_batch_id = sequence if sequence is not None else self._bump

    def _bump(self) -> int:
        return self._batch_seq + 1

    @property
    def config(self) -> BatchingConfig:
        return self._config

    @property
    def last_batch_id(self) -> int:
        """Id of the most recently dispatched batch (0 before any)."""
        return self._batch_seq

    @property
    def queue_depth(self) -> int:
        """Pair jobs currently waiting for a batch slot."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the collector task (no-op when batching is disabled)."""
        if self._config.enabled and self._collector is None:
            self._closed = False
            self._collector = asyncio.get_running_loop().create_task(
                self._collect(), name="repro-batch-collector"
            )

    async def stop(self) -> None:
        """Drain the queue, stop the collector, shut the executor down."""
        self._closed = True
        self._wake.set()
        if self._collector is not None:
            await self._collector
            self._collector = None
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Request side
    # ------------------------------------------------------------------
    async def score(
        self,
        pairs: Sequence[Tuple[Template, Template]],
        timeout_s: Optional[float] = None,
    ) -> np.ndarray:
        """Scores of this request's comparisons, in input order.

        With batching enabled, the pairs join the shared admission queue
        and ride whichever micro-batches the collector forms; otherwise
        they are scored immediately in one private dispatch.  Raises
        :class:`ServiceOverloadError` when the queue cannot admit the
        request and :class:`DeadlineExceededError` when the deadline
        expires before the matcher answers.  A request larger than
        ``queue_depth`` is admitted when the queue is empty — waiting
        for room could never help it — and refused otherwise.
        """
        loop = asyncio.get_running_loop()
        budget = timeout_s if timeout_s is not None else self._config.timeout_s
        pair_list = list(pairs)
        if not pair_list:
            return np.empty(0, dtype=np.float64)
        if not self._config.enabled or self._collector is None:
            return await self._score_direct(loop, pair_list, budget)
        if self._queue and (
            len(self._queue) + len(pair_list) > self._config.queue_depth
        ):
            self._stats.record(OVERLOADS)
            raise ServiceOverloadError(
                f"admission queue full ({len(self._queue)} jobs queued, "
                f"depth {self._config.queue_depth}); retry later"
            )
        deadline = loop.time() + budget
        trace = current_trace()
        enqueued = time.perf_counter()
        futures: List["asyncio.Future[float]"] = []
        for probe, gallery in pair_list:
            future: "asyncio.Future[float]" = loop.create_future()
            self._queue.append(
                _Job(probe, gallery, future, deadline, trace, enqueued)
            )
            futures.append(future)
        self._stats.record(ENQUEUE_DEPTH, len(self._queue))
        self._wake.set()
        results = await asyncio.gather(*futures, return_exceptions=True)
        scores = np.empty(len(results), dtype=np.float64)
        for index, result in enumerate(results):
            if isinstance(result, BaseException):
                raise result
            scores[index] = result
        return scores

    async def _score_direct(
        self, loop: asyncio.AbstractEventLoop, pair_list: list, budget: float
    ) -> np.ndarray:
        """The unbatched control path: one scalar dispatch per comparison.

        This is what a naive server does — every comparison is its own
        ``match`` call and its own event-loop/worker round trip, with no
        coalescing, no batch grouping, and no duplicate collapsing.  The
        load benchmark measures micro-batching against exactly this arm.
        """
        deadline = loop.time() + budget
        trace = current_trace()
        scores = np.empty(len(pair_list), dtype=np.float64)
        for index, (probe, gallery) in enumerate(pair_list):
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise DeadlineExceededError(
                    f"request exceeded its {budget:.3f}s deadline"
                )
            started = time.perf_counter()
            call = loop.run_in_executor(
                self._executor, self._matcher.match, probe, gallery
            )
            try:
                scores[index] = await asyncio.wait_for(call, timeout=remaining)
            except asyncio.TimeoutError:
                raise DeadlineExceededError(
                    f"request exceeded its {budget:.3f}s deadline"
                ) from None
            self._batch_seq = self._next_batch_id()
            if trace is not None:
                # The unbatched arm still yields an attributable
                # timeline: zero queue/handoff wait, per-call batch id.
                trace.note_batch(
                    self._batch_seq, 0.0, 0.0, time.perf_counter() - started
                )
            self._stats.record_batch(
                1, requests=1, batch_id=self._batch_seq
            )
        return scores

    # ------------------------------------------------------------------
    # Collector side
    # ------------------------------------------------------------------
    async def _collect(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            while not self._queue and not self._closed:
                self._wake.clear()
                await self._wake.wait()
            if not self._queue and self._closed:
                return
            # Dispatch on idle: whatever queued while the previous batch
            # ran goes out together now, up to max_batch.
            batch = [
                self._queue.popleft()
                for _ in range(min(len(self._queue), self._config.max_batch))
            ]
            await self._dispatch(loop, batch)

    async def _dispatch(
        self, loop: asyncio.AbstractEventLoop, batch: List[_Job]
    ) -> None:
        now = loop.time()
        live: List[_Job] = []
        expired = 0
        for job in batch:
            if job.future.cancelled():
                continue
            if job.deadline <= now:
                expired += 1
                job.future.set_exception(
                    DeadlineExceededError(
                        "comparison expired in the admission queue"
                    )
                )
                continue
            live.append(job)
        batch_id = 0
        if live:
            self._batch_seq = self._next_batch_id()
            batch_id = self._batch_seq
            claimed = time.perf_counter()
            for job in live:
                self._stats.record_queue_wait(max(0.0, claimed - job.enqueued))
            pairs = [(job.probe, job.gallery) for job in live]

            def _timed_score_pairs():
                # Runs on the one-thread executor: `started` lags
                # `claimed` by the executor handoff plus any batch still
                # occupying the matcher thread — the batch_wait phase.
                started = time.perf_counter()
                result = self._matcher.score_pairs(pairs)
                return result, started, time.perf_counter()

            try:
                scores, started, finished = await loop.run_in_executor(
                    self._executor, _timed_score_pairs
                )
            except Exception as exc:  # noqa: BLE001 - fan the failure out
                for job in live:
                    if not job.future.cancelled():
                        job.future.set_exception(exc)
            else:
                batch_wait = max(0.0, started - claimed)
                match_seconds = max(0.0, finished - started)
                self._stats.record(BATCH_WAIT, batch_wait)
                self._stats.record(MATCH_TIME, match_seconds)
                for job, score in zip(live, scores):
                    if job.trace is not None:
                        job.trace.note_batch(
                            batch_id,
                            max(0.0, claimed - job.enqueued),
                            batch_wait,
                            match_seconds,
                        )
                    if not job.future.cancelled():
                        job.future.set_result(float(score))
        request_ids = sorted(
            {job.trace.request_id for job in live if job.trace is not None}
        )
        self._stats.record_batch(
            len(live),
            expired=expired,
            requests=len(request_ids),
            batch_id=batch_id or None,
        )
        if live and _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "micro-batch dispatched",
                extra={"data": {
                    "batch_id": batch_id,
                    "jobs": len(live),
                    "expired": expired,
                    "requests": request_ids,
                }},
            )


__all__ = [
    "BatchingConfig",
    "MicroBatcher",
    "ServiceOverloadError",
    "DeadlineExceededError",
]
