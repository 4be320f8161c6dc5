"""Process-pool internals, exercised explicitly.

``resolve_worker_count`` caps pools at the machine's CPU count, so on a
single-core runner the pool branches never engage on their own.  These
tests force them: the pure worker functions run in-process, and
``parallel_map`` runs with the resolver monkeypatched so a real
two-process pool spins up regardless of core count.
"""

import numpy as np
import pytest

import repro.runtime.parallel as parallel_module
from repro.core.scores import enumerate_dmg_jobs
from repro.core.study import (
    _init_score_worker,
    _run_job_chunk,
    _run_job_chunk_with_metrics,
)
from repro.runtime.parallel import parallel_map
from repro.runtime.telemetry import (
    disable_telemetry,
    enable_telemetry,
    get_recorder,
    set_recorder,
)


def _square(x):
    return x * x


class TestScoreWorkerFunctions:
    def test_worker_roundtrip_in_process(self, tiny_collection, tiny_config):
        """The initializer + chunk runner produce the same ScoreSet the
        sequential path does."""
        from repro.core.scores import run_jobs
        from repro.matcher import build_matcher

        jobs = enumerate_dmg_jobs(4)
        _init_score_worker(tiny_collection, "bioengine")
        worker_result = _run_job_chunk((jobs, "right_index", "DMG"))
        direct_result = run_jobs(
            jobs, tiny_collection, build_matcher("bioengine"), "right_index", "DMG"
        )
        np.testing.assert_array_equal(
            worker_result.scores, direct_result.scores
        )
        np.testing.assert_array_equal(
            worker_result.subject_gallery, direct_result.subject_gallery
        )


class TestWorkerTelemetry:
    def test_chunk_with_metrics_reports_exact_counts(
        self, tiny_collection, tiny_config
    ):
        """The telemetry variant returns the same ScoreSet plus a metrics
        snapshot whose matcher counts are exact for the chunk."""
        previous = get_recorder()
        try:
            jobs = enumerate_dmg_jobs(4)
            _init_score_worker(tiny_collection, "bioengine")
            result, snapshot = _run_job_chunk_with_metrics(
                (jobs, "right_index", "DMG")
            )
            plain = _run_job_chunk((jobs, "right_index", "DMG"))
            np.testing.assert_array_equal(result.scores, plain.scores)
            assert snapshot["counters"]["matcher.invocations"] == len(jobs)
            assert snapshot["counters"]["matcher.invocations.DMG"] == len(jobs)
            # Snapshots from two chunks merge to the total — the parent-
            # side aggregation contract.
            parent = enable_telemetry()
            parent.merge_metrics(snapshot)
            parent.merge_metrics(snapshot)
            assert parent.metrics.counter_value("matcher.invocations") == 2 * len(
                jobs
            )
        finally:
            set_recorder(previous)

    def test_initializer_defaults_to_no_telemetry(
        self, tiny_collection, tiny_config
    ):
        """Neither the initializer nor the metrics body replaces the
        process recorder: the chunk records into its own recorder, which
        is what makes the supervisor's in-process fallback safe."""
        previous = get_recorder()
        try:
            disable_telemetry()
            null = get_recorder()
            _init_score_worker(tiny_collection, "bioengine")
            assert get_recorder() is null
            jobs = enumerate_dmg_jobs(4)
            result, snapshot = _run_job_chunk_with_metrics(
                (jobs, "right_index", "DMG")
            )
            assert get_recorder() is null
            assert not null.active
            assert snapshot["counters"]["matcher.invocations.DMG"] == len(jobs)
            assert result.scores.size > 0
        finally:
            set_recorder(previous)


class TestForcedPool:
    def test_parallel_map_with_real_pool(self, monkeypatch):
        monkeypatch.setattr(
            parallel_module, "resolve_worker_count", lambda requested: 2
        )
        items = list(range(300))
        result = parallel_map(_square, items, n_workers=2, chunk_size=37)
        assert result == [x * x for x in items]

    def test_collection_is_picklable_for_pool_shipping(self, tiny_collection):
        """The study ships the whole collection to each worker via the
        pool initializer; it must round-trip through pickle."""
        import pickle

        blob = pickle.dumps(tiny_collection)
        restored = pickle.loads(blob)
        assert len(restored) == len(tiny_collection)
        sample = restored.get(0, "right_index", "D0", 0)
        original = tiny_collection.get(0, "right_index", "D0", 0)
        assert sample.template.minutiae == original.template.minutiae
