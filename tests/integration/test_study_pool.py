"""One scoring pool per study.

``score_sets()`` resolves every scenario's cached shards first, then
sends the missing jobs of all four scenarios through one shared-memory
template block and one supervised pool, so each worker builds a
template or frame at most once per study.  ``resolve_worker_count``
clamps to the core count, so these tests patch it in both consumers
(``repro.core.study`` imports its own reference) to force a two-worker
pool on any machine.
"""

import time

import numpy as np
import pytest

import repro.core.study as study_mod
import repro.runtime.parallel as parallel_mod
from repro.api import InteroperabilityStudy, StudyConfig
from repro.runtime.shm import SharedTemplateStore
from repro.runtime.telemetry import enable_telemetry, get_recorder, set_recorder

#: DMG 52, DDMG 260, DMI 77 and DDMI 310 jobs: 699 together, past the
#: 256-job pool gate, while DMG and DMI alone are not.
SUBJECTS = 13

SCENARIOS = ("DMG", "DDMG", "DMI", "DDMI")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Module-shared artifact store so the collection builds only once."""
    return tmp_path_factory.mktemp("study_pool")


@pytest.fixture(scope="module")
def reference(base):
    """All four score sets, computed serially without a score cache."""
    config = StudyConfig(
        n_subjects=SUBJECTS,
        n_workers=0,
        cache_dir=None,
        artifact_dir=str(base / "artifacts"),
    )
    return InteroperabilityStudy(config).score_sets()


@pytest.fixture()
def config(base, tmp_path):
    return StudyConfig(
        n_subjects=SUBJECTS,
        n_workers=2,
        cache_dir=str(tmp_path / "cache"),
        artifact_dir=str(base / "artifacts"),
    )


@pytest.fixture()
def forced_pool(monkeypatch):
    monkeypatch.setattr(study_mod, "resolve_worker_count", lambda requested: 2)
    monkeypatch.setattr(
        parallel_mod, "resolve_worker_count", lambda requested: 2
    )


@pytest.fixture()
def recorder():
    previous = get_recorder()
    live = enable_telemetry()
    yield live
    set_recorder(previous)


@pytest.fixture()
def dispatches(monkeypatch):
    """Parent-side counts of shared-memory packs and pooled maps."""
    calls = {"pack": 0, "map": [], "task_keys": []}
    real_pack = SharedTemplateStore.pack.__func__
    real_map = study_mod.parallel_map_batched

    def pack(cls, collection):
        calls["pack"] += 1
        return real_pack(cls, collection)

    def parallel_map_batched(func, batches, **kwargs):
        calls["map"].append(len(batches))
        calls["task_keys"].append(list(kwargs["task_keys"]))
        return real_map(func, batches, **kwargs)

    monkeypatch.setattr(SharedTemplateStore, "pack", classmethod(pack))
    monkeypatch.setattr(study_mod, "parallel_map_batched", parallel_map_batched)
    return calls


def _assert_identical(sets, reference):
    assert list(sets) == list(reference)
    for scenario, score_set in sets.items():
        expected = reference[scenario]
        np.testing.assert_array_equal(score_set.scores, expected.scores)
        np.testing.assert_array_equal(
            score_set.subject_gallery, expected.subject_gallery
        )
        np.testing.assert_array_equal(
            score_set.subject_probe, expected.subject_probe
        )
        np.testing.assert_array_equal(
            score_set.device_probe, expected.device_probe
        )
        np.testing.assert_array_equal(
            score_set.nfiq_probe, expected.nfiq_probe
        )


class TestOnePoolPerStudy:
    def test_score_sets_pack_once_and_map_once(
        self, reference, config, forced_pool, dispatches
    ):
        sets = InteroperabilityStudy(config).score_sets()
        assert dispatches["pack"] == 1
        assert len(dispatches["map"]) == 1
        # Each scenario keeps its own partition and task keys:
        # chunk = max(64, n // 8) gives 1 + 5 + 2 + 5 chunks.
        expected = [
            f"{scenario}-chunk{i:04d}"
            for scenario, n_chunks in zip(SCENARIOS, (1, 5, 2, 5))
            for i in range(n_chunks)
        ]
        assert dispatches["task_keys"] == [expected]
        _assert_identical(sets, reference)
        # A warm rerun is served from the shards and starts no pool.
        warm = InteroperabilityStudy(config).score_sets()
        assert dispatches["pack"] == 1
        assert len(dispatches["map"]) == 1
        _assert_identical(warm, reference)

    def test_spans_are_top_level_and_counters_per_scenario(
        self, reference, config, forced_pool, recorder
    ):
        study = InteroperabilityStudy(config)
        study.collection()
        started = time.perf_counter()
        sets = study.score_sets()
        wall = time.perf_counter() - started
        children = recorder.span_tree()["children"]
        scoring = [c for c in children if c["name"].startswith("scores.")]
        assert [c["name"] for c in scoring] == [
            f"scores.{scenario}" for scenario in SCENARIOS
        ]
        # Each span opens as the previous one closes, so together they
        # cover the scoring wall time.
        covered = sum(c["seconds"] for c in scoring)
        assert 0.9 * wall <= covered <= wall
        for scenario in SCENARIOS:
            assert recorder.counter_value(
                f"matcher.invocations.{scenario}"
            ) == len(study._jobs_for(scenario))
        assert recorder.counter_value("parallel.batches") == 13
        assert recorder.counter_value("study.scores.computed") == 4
        _assert_identical(sets, reference)


class TestInProcessFallbackTelemetry:
    def test_single_remaining_chunk_keeps_parent_recorder(
        self, reference, config, forced_pool, recorder
    ):
        """With one chunk left the supervisor runs it in the parent; the
        chunk's metrics must merge into the parent's recorder instead of
        replacing it."""
        study = InteroperabilityStudy(config, resume=True)
        jobs = study._jobs_for("DDMG")
        chunk = 64  # max(64, 260 // (2 * 4))
        prefix = study._checkpoint_prefix("DDMG", study.finger, 5)
        expected = reference["DDMG"]
        # A cold run submits the jobs device pair by device pair.
        pairs = study._pair_partition(jobs)
        submitted = np.asarray([k for pair in pairs for k in pairs[pair]])
        for i in range(1, 5):
            rows = submitted[i * chunk : (i + 1) * chunk]
            study._store_cached(expected.select(rows), f"{prefix}-{i:04d}")

        recorder.count("before.scoring", 7)
        with recorder.span("outer"):
            out = study._scores_for("DDMG", jobs)

        assert get_recorder() is recorder
        assert recorder.counter_value("before.scoring") == 7
        assert recorder.counter_value("study.checkpoint.resumed") == 4
        assert recorder.counter_value("matcher.invocations.DDMG") == chunk
        assert [c["name"] for c in recorder.span_tree()["children"]] == [
            "outer"
        ]
        np.testing.assert_array_equal(out.scores, expected.scores)
        np.testing.assert_array_equal(
            out.subject_probe, expected.subject_probe
        )
