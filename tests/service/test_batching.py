"""Micro-batching admission queue: dispatch on idle, overload, deadlines."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.runtime.errors import ConfigurationError
from repro.service.batching import (
    BatchingConfig,
    DeadlineExceededError,
    MicroBatcher,
    ServiceOverloadError,
)
from repro.service.stats import ServiceStats


class RecordingMatcher:
    """Scores each pair as its probe marker; remembers dispatch sizes.

    The batcher treats templates as opaque, so plain ints stand in —
    these tests exercise queueing mechanics, not matching (parity with
    the real matcher is covered separately below).  ``score_pairs`` is
    the batched dispatch; ``match`` is the scalar path the unbatched
    control arm uses (recorded as a size-1 dispatch).
    """

    def __init__(self):
        self.batch_sizes = []

    def score_pairs(self, pairs):
        self.batch_sizes.append(len(pairs))
        return np.asarray([float(probe) for probe, _gallery in pairs])

    def match(self, probe, _gallery):
        self.batch_sizes.append(1)
        return float(probe)


class SlowMatcher(RecordingMatcher):
    """Blocks the single worker thread to force queueing behind it."""

    def __init__(self, delay_s):
        super().__init__()
        self.delay_s = delay_s

    def score_pairs(self, pairs):
        time.sleep(self.delay_s)
        return super().score_pairs(pairs)

    def match(self, probe, gallery):
        time.sleep(self.delay_s)
        return super().match(probe, gallery)


class GatedMatcher:
    """Wraps a matcher; batches wait on its thread while the gate is shut.

    The gate (``release``) starts open.  Shutting it parks the next
    batch on the matcher thread (``entered`` is set once one is held,
    ``held`` is its size), so every job enqueued meanwhile has to wait
    for the next dispatch — the deterministic way to make jobs meet in
    the queue without relying on timing.
    """

    def __init__(self, inner):
        self._inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()
        self.held = 0

    def score_pairs(self, pairs):
        if not self.release.is_set():
            self.held = len(pairs)
            self.entered.set()
            assert self.release.wait(10), "gate never released"
        return self._inner.score_pairs(pairs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


async def _hold_matcher(batcher, gate, pairs):
    """Shut the gate, start a request, return once its batch is held."""
    gate.entered.clear()
    gate.release.clear()
    held = asyncio.ensure_future(batcher.score(pairs))
    assert await asyncio.to_thread(gate.entered.wait, 10)
    return held


async def _queue_until(batcher, jobs):
    """Yield to the loop until ``jobs`` pair jobs are queued."""
    for _ in range(1000):
        if batcher.queue_depth >= jobs:
            return
        await asyncio.sleep(0)
    raise AssertionError(f"only {batcher.queue_depth} of {jobs} jobs queued")


async def _with_batcher(matcher, config, body):
    batcher = MicroBatcher(matcher, config=config)
    await batcher.start()
    try:
        return await body(batcher)
    finally:
        await batcher.stop()


class TestConfig:
    def test_defaults(self):
        config = BatchingConfig()
        assert config.max_batch == 32
        assert config.queue_depth == 256
        assert config.timeout_s == 30.0
        assert config.enabled is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"queue_depth": 0},
            {"timeout_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatchingConfig(**kwargs)

    def test_environment_overrides_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "8")
        monkeypatch.setenv("REPRO_SERVE_QUEUE_DEPTH", "16")
        monkeypatch.setenv("REPRO_SERVE_TIMEOUT_S", "4.5")
        monkeypatch.setenv("REPRO_SERVE_BATCHING", "0")
        config = BatchingConfig.from_environment(max_batch=99)
        assert config.max_batch == 8
        assert config.queue_depth == 16
        assert config.timeout_s == 4.5
        assert config.enabled is False

    def test_environment_defaults_pass_through(self, monkeypatch):
        for name in (
            "REPRO_SERVE_MAX_BATCH",
            "REPRO_SERVE_QUEUE_DEPTH",
            "REPRO_SERVE_TIMEOUT_S",
            "REPRO_SERVE_BATCHING",
        ):
            monkeypatch.delenv(name, raising=False)
        config = BatchingConfig.from_environment(max_batch=7, enabled=False)
        assert config.max_batch == 7
        assert config.enabled is False


class TestCoalescing:
    def test_concurrent_requests_share_batches(self):
        matcher = RecordingMatcher()
        config = BatchingConfig(max_batch=16)

        async def body(batcher):
            return await asyncio.gather(
                *(batcher.score([(float(k), None)]) for k in range(8))
            )

        results = asyncio.run(_with_batcher(matcher, config, body))
        # Each request got its own score back, in its own order...
        for k, scores in enumerate(results):
            np.testing.assert_array_equal(scores, [float(k)])
        # ...but the matcher saw far fewer dispatches than requests.
        assert sum(matcher.batch_sizes) == 8
        assert max(matcher.batch_sizes) >= 2

    def test_max_batch_caps_dispatch_size(self):
        matcher = RecordingMatcher()
        config = BatchingConfig(max_batch=3)

        async def body(batcher):
            pairs = [(float(k), None) for k in range(10)]
            return await batcher.score(pairs)

        scores = asyncio.run(_with_batcher(matcher, config, body))
        np.testing.assert_array_equal(scores, np.arange(10, dtype=float))
        assert max(matcher.batch_sizes) <= 3
        assert sum(matcher.batch_sizes) == 10

    def test_empty_request_short_circuits(self):
        matcher = RecordingMatcher()

        async def body(batcher):
            return await batcher.score([])

        scores = asyncio.run(_with_batcher(matcher, BatchingConfig(), body))
        assert scores.size == 0
        assert matcher.batch_sizes == []

    def test_parity_with_direct_dispatch(self, tiny_collection, matcher):
        pairs = [
            (
                tiny_collection.get(sid, "right_index", "D1", 1).template,
                tiny_collection.get(sid, "right_index", "D0", 0).template,
            )
            for sid in range(6)
        ]

        async def body(batcher):
            return await batcher.score(pairs)

        batched = asyncio.run(
            _with_batcher(matcher, BatchingConfig(), body)
        )
        np.testing.assert_array_equal(batched, matcher.score_pairs(pairs))


class TestDispatchOnIdle:
    def test_lone_request_arms_no_timer(self):
        """An idle batcher dispatches at once: no window, no loop timer."""
        timers = []

        async def body(batcher):
            loop = asyncio.get_running_loop()
            call_at, call_later = loop.call_at, loop.call_later

            def spy_at(when, *args, **kwargs):
                timers.append(("call_at", when))
                return call_at(when, *args, **kwargs)

            def spy_later(delay, *args, **kwargs):
                timers.append(("call_later", delay))
                return call_later(delay, *args, **kwargs)

            loop.call_at, loop.call_later = spy_at, spy_later
            try:
                return await batcher.score([(1.0, None)])
            finally:
                del loop.call_at, loop.call_later

        matcher = RecordingMatcher()
        scores = asyncio.run(_with_batcher(matcher, BatchingConfig(), body))
        np.testing.assert_array_equal(scores, [1.0])
        assert matcher.batch_sizes == [1]
        assert timers == []

    def test_jobs_queued_behind_a_busy_matcher_ride_together(self):
        matcher = GatedMatcher(RecordingMatcher())
        config = BatchingConfig(max_batch=3)

        async def body(batcher):
            held = await _hold_matcher(batcher, matcher, [(0.0, None)])
            queued = [
                asyncio.ensure_future(batcher.score([(float(k), None)]))
                for k in range(1, 6)
            ]
            await _queue_until(batcher, 5)
            matcher.release.set()
            return await asyncio.gather(held, *queued)

        results = asyncio.run(_with_batcher(matcher, config, body))
        for k, scores in enumerate(results):
            np.testing.assert_array_equal(scores, [float(k)])
        # The held batch, then the five queued jobs capped at max_batch.
        assert matcher.batch_sizes == [1, 3, 2]


class TestOverload:
    def test_oversized_request_refused(self):
        """Oversized requests are scored alone, never beside a queue.

        Larger than ``queue_depth`` means waiting for room could never
        help, so an empty queue admits the request; a non-empty one
        refuses it (the client retries once the backlog drains).
        """
        matcher = GatedMatcher(RecordingMatcher())
        config = BatchingConfig(queue_depth=2)
        oversized = [(1.0, None), (2.0, None), (3.0, None)]

        async def body(batcher):
            alone = await batcher.score(oversized)
            held = await _hold_matcher(batcher, matcher, [(4.0, None)])
            waiting = asyncio.ensure_future(batcher.score([(5.0, None)]))
            await _queue_until(batcher, 1)
            with pytest.raises(ServiceOverloadError):
                await batcher.score(oversized)
            matcher.release.set()
            return alone, await held, await waiting

        alone, held, waiting = asyncio.run(
            _with_batcher(matcher, config, body)
        )
        np.testing.assert_array_equal(alone, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(held, [4.0])
        np.testing.assert_array_equal(waiting, [5.0])
        assert matcher.batch_sizes == [3, 1, 1]

    def test_overload_is_recorded(self):
        stats = ServiceStats()
        config = BatchingConfig(queue_depth=1)
        matcher = GatedMatcher(RecordingMatcher())

        async def body():
            batcher = MicroBatcher(matcher, stats=stats, config=config)
            await batcher.start()
            try:
                held = await _hold_matcher(batcher, matcher, [(0.0, None)])
                waiting = asyncio.ensure_future(batcher.score([(1.0, None)]))
                await _queue_until(batcher, 1)
                with pytest.raises(ServiceOverloadError):
                    await batcher.score([(2.0, None), (3.0, None)])
                matcher.release.set()
                await asyncio.gather(held, waiting)
            finally:
                matcher.release.set()
                await batcher.stop()

        asyncio.run(body())
        assert stats.snapshot()["overloads"] == 1


class TestDeadlines:
    def test_queued_job_expires_behind_slow_batch(self):
        matcher = SlowMatcher(0.4)
        config = BatchingConfig(timeout_s=30.0)

        async def body(batcher):
            first = asyncio.ensure_future(batcher.score([(1.0, None)]))
            await asyncio.sleep(0.05)  # let the slow batch occupy the worker
            with pytest.raises(DeadlineExceededError):
                await batcher.score([(2.0, None)], timeout_s=0.1)
            return await first

        scores = asyncio.run(_with_batcher(matcher, config, body))
        np.testing.assert_array_equal(scores, [1.0])
        assert matcher.batch_sizes == [1]  # the expired job never dispatched

    def test_unbatched_deadline(self):
        matcher = SlowMatcher(0.5)
        config = BatchingConfig(enabled=False)

        async def body(batcher):
            with pytest.raises(DeadlineExceededError):
                await batcher.score([(1.0, None)], timeout_s=0.05)

        asyncio.run(_with_batcher(matcher, config, body))


class TestDisabled:
    def test_disabled_mode_dispatches_per_comparison(self):
        matcher = RecordingMatcher()
        config = BatchingConfig(enabled=False)

        async def body(batcher):
            singles = await asyncio.gather(
                *(batcher.score([(float(k), None)]) for k in range(5))
            )
            fanout = await batcher.score([(7.0, None), (8.0, None)])
            return singles, fanout

        singles, fanout = asyncio.run(_with_batcher(matcher, config, body))
        for k, scores in enumerate(singles):
            np.testing.assert_array_equal(scores, [float(k)])
        np.testing.assert_array_equal(fanout, [7.0, 8.0])
        # Fully unbatched: every comparison is its own scalar dispatch,
        # even within a single multi-pair request.
        assert matcher.batch_sizes == [1] * 7

    def test_matcher_runs_off_the_event_loop(self):
        """The worker executor must not block the loop thread."""
        loop_thread = threading.current_thread()
        seen = []

        class ThreadSpy(RecordingMatcher):
            def score_pairs(self, pairs):
                seen.append(threading.current_thread())
                return super().score_pairs(pairs)

        async def body(batcher):
            await batcher.score([(1.0, None)])

        asyncio.run(_with_batcher(ThreadSpy(), BatchingConfig(), body))
        assert seen and all(t is not loop_thread for t in seen)


class TestStatsIntegration:
    def test_batches_recorded(self):
        stats = ServiceStats()
        config = BatchingConfig(max_batch=16)

        async def body():
            batcher = MicroBatcher(RecordingMatcher(), stats=stats, config=config)
            await batcher.start()
            try:
                await asyncio.gather(
                    *(batcher.score([(float(k), None)]) for k in range(6))
                )
            finally:
                await batcher.stop()

        asyncio.run(body())
        assert stats.snapshot()["batching"]["jobs"] == 6
        assert 1 <= stats.batches < 6
        assert stats.max_batch_size() >= 2
