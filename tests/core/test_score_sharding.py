"""Score-cache sharding: per scenario x device-pair granularity.

Invalidating one shard must force recomputation of only that shard; every
other shard is served from cache and the reassembled score sets are
bit-identical to a cold run.
"""

import numpy as np
import pytest

import repro.core.study as study_mod
import repro.runtime.parallel as parallel_mod
from repro.core.study import InteroperabilityStudy
from repro.runtime import ScoreCache, StudyConfig
from repro.runtime.telemetry import disable_telemetry, enable_telemetry


@pytest.fixture()
def cached_cfg(tmp_path):
    return StudyConfig(n_subjects=6, master_seed=7, cache_dir=str(tmp_path))


@pytest.fixture()
def telemetry():
    recorder = enable_telemetry()
    yield recorder
    disable_telemetry()


def _counters(recorder):
    metrics = recorder.metrics
    return {
        "cached": metrics.counter_value("study.scores.cached"),
        "computed": metrics.counter_value("study.scores.computed"),
        "shards_cached": metrics.counter_value("study.scores.shards_cached"),
        "shards_computed": metrics.counter_value(
            "study.scores.shards_computed"
        ),
    }


class TestShardedCache:
    def test_warm_rerun_is_fully_shard_served(self, cached_cfg, telemetry):
        baseline = InteroperabilityStudy(cached_cfg).score_sets()
        before = _counters(telemetry)
        rerun = InteroperabilityStudy(cached_cfg).score_sets()
        after = _counters(telemetry)
        assert after["cached"] - before["cached"] == len(baseline)
        assert after["shards_computed"] == before["shards_computed"]
        for scenario, scores in baseline.items():
            np.testing.assert_array_equal(
                scores.scores, rerun[scenario].scores
            )

    def test_invalidating_one_shard_recomputes_only_it(
        self, cached_cfg, telemetry
    ):
        study = InteroperabilityStudy(cached_cfg)
        baseline = study.score_sets()

        cache = ScoreCache(cached_cfg.cache_dir)
        assert cache.invalidate(study.shard_key("DDMG", "D0", "D1"))
        fresh = InteroperabilityStudy(cached_cfg)
        assert fresh.cached_score_set("DDMG") is None
        assert fresh.cached_score_set("DMG") is not None

        before = _counters(telemetry)
        rerun = fresh.score_sets()
        after = _counters(telemetry)
        assert after["shards_computed"] - before["shards_computed"] == 1
        assert after["computed"] - before["computed"] == 1
        assert after["cached"] - before["cached"] == len(baseline) - 1
        for scenario, scores in baseline.items():
            np.testing.assert_array_equal(
                scores.scores, rerun[scenario].scores
            )
            np.testing.assert_array_equal(
                scores.subject_gallery, rerun[scenario].subject_gallery
            )

    def test_pooled_run_then_one_invalidated_shard_recomputes_only_it(
        self, tmp_path, telemetry, monkeypatch
    ):
        """A cold two-worker study sends every scenario through one pool;
        invalidating one shard afterwards recomputes only that pair."""
        monkeypatch.setattr(study_mod, "resolve_worker_count", lambda n: 2)
        monkeypatch.setattr(parallel_mod, "resolve_worker_count", lambda n: 2)
        cfg = StudyConfig(
            n_subjects=13, master_seed=7, n_workers=2, cache_dir=str(tmp_path)
        )
        serial = InteroperabilityStudy(
            StudyConfig(n_subjects=13, master_seed=7, n_workers=0)
        ).score_sets()
        pooled = InteroperabilityStudy(cfg).score_sets()
        assert telemetry.metrics.counter_value("parallel.batches") > 0

        study = InteroperabilityStudy(cfg)
        assert ScoreCache(cfg.cache_dir).invalidate(
            study.shard_key("DDMI", "D2", "D0")
        )
        before = _counters(telemetry)
        invocations = telemetry.metrics.counter_value(
            "matcher.invocations.DDMI"
        )
        rerun = study.score_sets()
        after = _counters(telemetry)
        assert after["shards_computed"] - before["shards_computed"] == 1
        assert after["computed"] - before["computed"] == 1
        assert after["cached"] - before["cached"] == 3
        pair = rerun["DDMI"].for_pair("D2", "D0")
        assert telemetry.metrics.counter_value(
            "matcher.invocations.DDMI"
        ) - invocations == len(pair)
        for scenario, scores in serial.items():
            for other in (pooled, rerun):
                np.testing.assert_array_equal(
                    scores.scores, other[scenario].scores
                )
                np.testing.assert_array_equal(
                    scores.subject_probe, other[scenario].subject_probe
                )

    def test_cached_score_set_misses_on_unseen_config(self, tmp_path):
        cfg = StudyConfig(
            n_subjects=5, master_seed=11, cache_dir=str(tmp_path)
        )
        assert InteroperabilityStudy(cfg).cached_score_set("DMG") is None
