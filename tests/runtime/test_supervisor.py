"""Supervised pool execution: retry policy, self-healing, ordering."""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.runtime.supervisor as supervisor_module
from repro.runtime.errors import (
    ConfigurationError,
    PermanentError,
    TransientError,
)
from repro.runtime.faults import ENV_LEDGER, ENV_SPEC
from repro.runtime.supervisor import (
    BatchSupervisor,
    RetryPolicy,
    default_task_keys,
    supervised_map_batched,
)
from repro.runtime.telemetry import enable_telemetry, get_recorder, set_recorder


@pytest.fixture()
def recorder():
    previous = get_recorder()
    live = enable_telemetry()
    yield live
    set_recorder(previous)


# Module-level so pool workers can unpickle them.
def _sum_batch(batch):
    return sum(batch)


def _arm_crash_for_width(ledger_root, width):
    """Pool initializer: crash batch 0 once per pool width."""
    os.environ[ENV_SPEC] = "crash@task-batch0000:1"
    os.environ[ENV_LEDGER] = os.path.join(ledger_root, f"width{width}")


FAST = RetryPolicy(backoff_base=0.001, backoff_max=0.01, poll_interval=0.05)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": -1.0},
            {"backoff_factor": 0.5},
            {"jitter": -0.1},
            {"batch_timeout": 0.0},
            {"shrink_after": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=1.0, jitter=0.5
        )
        for attempt in range(1, 7):
            delay = policy.backoff_for("scores-chunk0001", attempt)
            pure = min(0.1 * 2.0 ** (attempt - 1), 1.0)
            assert pure <= delay <= pure * 1.5
            assert delay == policy.backoff_for("scores-chunk0001", attempt)
        # Jitter separates tasks so retries do not thunder in lockstep.
        assert policy.backoff_for("a", 1) != policy.backoff_for("b", 1)

    def test_from_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_MAX_ATTEMPTS", "7")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5")
        monkeypatch.setenv("REPRO_BATCH_TIMEOUT", "12")
        policy = RetryPolicy.from_environment()
        assert policy.max_attempts == 7
        assert policy.backoff_base == 0.5
        assert policy.batch_timeout == 12.0

    def test_zero_timeout_disables_watchdog(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_TIMEOUT", "0")
        assert RetryPolicy.from_environment().batch_timeout is None

    def test_default_task_keys(self):
        assert default_task_keys("scores", 2) == [
            "scores-batch0000",
            "scores-batch0001",
        ]

    def test_task_key_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="task_keys"):
            supervised_map_batched(_sum_batch, [[1], [2]], task_keys=["only"])


class TestSerial:
    def test_results_and_emission_order(self):
        emitted = []
        results = supervised_map_batched(
            _sum_batch,
            [[1, 2], [3], [4, 5, 6]],
            n_workers=0,
            on_result=emitted.append,
        )
        assert results == [3, 3, 15]
        assert emitted == [3, 3, 15]

    def test_transient_failure_is_retried(self, recorder):
        calls = {"n": 0}

        def flaky(batch):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise TransientError("warming up")
            return sum(batch)

        results = supervised_map_batched(
            flaky, [[1, 2, 3]], n_workers=0, policy=FAST
        )
        assert results == [6]
        assert recorder.counter_value("supervisor.retries") == 2

    def test_permanent_failure_escalates_immediately(self):
        calls = {"n": 0}

        def broken(batch):
            calls["n"] += 1
            raise ValueError("bug, not weather")

        with pytest.raises(ValueError):
            supervised_map_batched(broken, [[1]], n_workers=0, policy=FAST)
        assert calls["n"] == 1  # no retry budget burned on a bug

    def test_exhausted_retries_escalate(self):
        def hopeless(batch):
            raise TransientError("never better")

        policy = RetryPolicy(max_attempts=2, backoff_base=0.001)
        with pytest.raises(TransientError):
            supervised_map_batched(hopeless, [[1]], n_workers=0, policy=policy)

    def test_fail_fast_false_skips_and_emits_none(self, recorder):
        emitted = []

        def sometimes(batch):
            if batch == [2]:
                raise PermanentError("poisoned batch")
            return sum(batch)

        results = supervised_map_batched(
            sometimes,
            [[1], [2], [3]],
            n_workers=0,
            policy=FAST,
            fail_fast=False,
            on_result=emitted.append,
        )
        assert results == [1, None, 3]
        assert emitted == [1, None, 3]
        assert recorder.counter_value("supervisor.skipped") == 1


@pytest.fixture()
def chaos_env(monkeypatch, tmp_path):
    """Point the fault harness at a per-test ledger; spec set by tests."""

    def arm(spec):
        monkeypatch.setenv(ENV_SPEC, spec)
        monkeypatch.setenv(ENV_LEDGER, str(tmp_path / "ledger"))

    return arm


class TestPooled:
    BATCHES = [[i, i + 1] for i in range(6)]
    EXPECTED = [2 * i + 1 for i in range(6)]

    def test_executes_in_order(self):
        emitted = []
        results = supervised_map_batched(
            _sum_batch, self.BATCHES, n_workers=2, on_result=emitted.append
        )
        assert results == self.EXPECTED
        assert emitted == self.EXPECTED

    def test_injected_transient_faults_are_retried(self, recorder, chaos_env):
        chaos_env("transient:2")
        results = supervised_map_batched(
            _sum_batch, self.BATCHES, n_workers=2, policy=FAST
        )
        assert results == self.EXPECTED
        assert recorder.counter_value("supervisor.retries") == 2

    def test_worker_crash_rebuilds_pool(self, recorder, chaos_env):
        chaos_env("crash:1")
        results = supervised_map_batched(
            _sum_batch, self.BATCHES, n_workers=2, policy=FAST
        )
        assert results == self.EXPECTED
        assert recorder.counter_value("supervisor.pool_restarts") >= 1

    def test_hung_batch_trips_watchdog(self, recorder, chaos_env):
        chaos_env("hang:1:60")
        policy = RetryPolicy(
            backoff_base=0.001, batch_timeout=1.0, poll_interval=0.05
        )
        results = supervised_map_batched(
            _sum_batch, self.BATCHES, n_workers=2, policy=policy
        )
        assert results == self.EXPECTED
        assert recorder.counter_value("supervisor.timeouts") >= 1
        assert recorder.counter_value("supervisor.pool_restarts") >= 1

    def test_repeated_breakage_shrinks_then_degrades(
        self, recorder, monkeypatch, tmp_path
    ):
        # One crash per pool width: batch 0 runs first in every pool
        # generation, so it breaks the width-2 pool (which shrinks it)
        # and, requeued, the width-1 pool (which degrades to serial).
        # Each pool arms its workers with a ledger of its own width, so
        # the second crash cannot fire early in the first generation,
        # however many cores run it.
        def width_armed_pool(max_workers, initializer=None, initargs=()):
            return ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_arm_crash_for_width,
                initargs=(str(tmp_path), max_workers),
            )

        monkeypatch.setattr(supervisor_module, "ProcessPoolExecutor",
                            width_armed_pool)
        policy = RetryPolicy(
            backoff_base=0.001, poll_interval=0.05, shrink_after=1
        )
        supervisor = BatchSupervisor(
            _sum_batch, self.BATCHES, n_workers=2, policy=policy
        )
        results = supervisor.run()
        assert results == self.EXPECTED
        assert recorder.counter_value("supervisor.pool_restarts") >= 2
        assert supervisor.workers == 1
        assert supervisor.degraded
