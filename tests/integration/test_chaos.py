"""Chaos suite: the study under injected faults.

The robustness claim of the execution layer is *semantic*: a run that
crashes, hangs or transiently fails must still produce scores that are
bit-identical to an undisturbed run, and an aborted run must resume
from its checkpoints instead of recomputing finished work.

``resolve_worker_count`` clamps to the core count, so on a single-core
runner the pool never engages on its own; these tests monkeypatch the
resolver in *both* consumers (``repro.core.study`` re-exports it) to
force a real two-worker pool.  Faults only fire inside pool workers, so
without the patch nothing here would inject at all.
"""

import numpy as np
import pytest

import repro.core.study as study_mod
import repro.runtime.parallel as parallel_mod
from repro.api import InteroperabilityStudy, StudyConfig
from repro.runtime.errors import PermanentError
from repro.runtime.faults import ENV_LEDGER, ENV_SPEC
from repro.runtime.telemetry import enable_telemetry, get_recorder, set_recorder

#: DDMG enumerates ``n * (n - 1) + n`` directed pairs + genuine jobs;
#: 13 subjects yield 260 jobs — past the 256-job pool gate with room
#: for five chunks, small enough to keep the suite quick.
SUBJECTS = 13


@pytest.fixture(scope="module")
def chaos_base(tmp_path_factory):
    """Module-shared artifact store so the collection builds only once."""
    return tmp_path_factory.mktemp("chaos")


@pytest.fixture(scope="module")
def reference(chaos_base):
    """Fault-free DDMG scores (serial, uncached) to compare against."""
    config = StudyConfig(
        n_subjects=SUBJECTS,
        n_workers=0,
        cache_dir=None,
        artifact_dir=str(chaos_base / "artifacts"),
    )
    study = InteroperabilityStudy(config)
    return study._scores_for("DDMG", study._jobs_for("DDMG"))


@pytest.fixture(scope="module")
def reference_sets(chaos_base):
    """All four fault-free score sets (serial, uncached)."""
    config = StudyConfig(
        n_subjects=SUBJECTS,
        n_workers=0,
        cache_dir=None,
        artifact_dir=str(chaos_base / "artifacts"),
    )
    return InteroperabilityStudy(config).score_sets()


@pytest.fixture()
def recorder():
    previous = get_recorder()
    live = enable_telemetry()
    yield live
    set_recorder(previous)


@pytest.fixture()
def forced_pool(monkeypatch):
    monkeypatch.setattr(study_mod, "resolve_worker_count", lambda requested: 2)
    monkeypatch.setattr(
        parallel_mod, "resolve_worker_count", lambda requested: 2
    )


@pytest.fixture()
def faulty_config(chaos_base, tmp_path):
    """Fresh score cache per test; artifact store shared with reference."""
    return StudyConfig(
        n_subjects=SUBJECTS,
        n_workers=2,
        cache_dir=str(tmp_path / "cache"),
        artifact_dir=str(chaos_base / "artifacts"),
    )


def _assert_identical(score_set, reference):
    np.testing.assert_array_equal(score_set.scores, reference.scores)
    np.testing.assert_array_equal(
        score_set.subject_gallery, reference.subject_gallery
    )
    np.testing.assert_array_equal(
        score_set.subject_probe, reference.subject_probe
    )


class TestFaultRecovery:
    def test_crash_and_transient_faults_leave_scores_bit_identical(
        self, reference, faulty_config, forced_pool, recorder, monkeypatch,
        tmp_path,
    ):
        monkeypatch.setenv(ENV_SPEC, "crash:1,transient:2")
        monkeypatch.setenv(ENV_LEDGER, str(tmp_path / "ledger"))
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        study = InteroperabilityStudy(faulty_config)
        out = study._scores_for("DDMG", study._jobs_for("DDMG"))
        _assert_identical(out, reference)
        assert recorder.counter_value("supervisor.retries") >= 1
        assert recorder.counter_value("supervisor.pool_restarts") >= 1

    def test_hung_worker_is_detected_and_scores_survive(
        self, reference, faulty_config, forced_pool, recorder, monkeypatch,
        tmp_path,
    ):
        monkeypatch.setenv(ENV_SPEC, "hang:1:60")
        monkeypatch.setenv(ENV_LEDGER, str(tmp_path / "ledger"))
        monkeypatch.setenv("REPRO_BATCH_TIMEOUT", "2")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        study = InteroperabilityStudy(faulty_config)
        out = study._scores_for("DDMG", study._jobs_for("DDMG"))
        _assert_identical(out, reference)
        assert recorder.counter_value("supervisor.timeouts") >= 1
        assert recorder.counter_value("supervisor.pool_restarts") >= 1


class TestCheckpointResume:
    def test_abort_checkpoints_then_resume_is_bit_identical(
        self, reference, faulty_config, forced_pool, recorder, monkeypatch,
        tmp_path,
    ):
        # Phase 1: a targeted permanent fault kills chunk 2.  The run
        # aborts, but every chunk that finished first is checkpointed
        # (the fail-fast abort settles healthy inflight batches so their
        # results reach the checkpoint store before the raise).
        monkeypatch.setenv(ENV_SPEC, "permanent@DDMG-chunk0002:1")
        monkeypatch.setenv(ENV_LEDGER, str(tmp_path / "ledger"))
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        faulty = InteroperabilityStudy(faulty_config)
        with pytest.raises(PermanentError, match="injected permanent fault"):
            faulty._scores_for("DDMG", faulty._jobs_for("DDMG"))
        stored = recorder.counter_value("study.checkpoint.stored")
        assert stored > 0

        # Phase 2: resume without faults.  Exactly the checkpointed
        # chunks are reloaded; the rest recompute; the assembled scores
        # match the undisturbed reference bit for bit.
        monkeypatch.delenv(ENV_SPEC)
        monkeypatch.delenv(ENV_LEDGER)
        resumed = InteroperabilityStudy(faulty_config, resume=True)
        out = resumed._scores_for("DDMG", resumed._jobs_for("DDMG"))
        assert recorder.counter_value("study.checkpoint.resumed") == stored
        _assert_identical(out, reference)

        # A completed run cleans its checkpoints out of the cache...
        cache_dir = tmp_path / "cache"
        leftovers = [
            p.name for p in cache_dir.iterdir() if "-ckpt-" in p.name
        ]
        assert leftovers == []

        # ...and leaves the ordinary score cache warm.
        again = InteroperabilityStudy(faulty_config)
        out2 = again._scores_for("DDMG", again._jobs_for("DDMG"))
        assert recorder.counter_value("study.scores.cached") == 1
        _assert_identical(out2, reference)

    def test_study_abort_in_last_scenario_resumes_from_its_checkpoints(
        self, reference_sets, faulty_config, forced_pool, recorder,
        monkeypatch, tmp_path,
    ):
        # All four scenarios share one pool.  A permanent fault in the
        # second DDMI chunk aborts the study after every earlier chunk
        # was delivered: DMG, DDMG and DMI finish (shards stored, their
        # checkpoints dropped) and only DDMI's first chunk is left as a
        # checkpoint.
        monkeypatch.setenv(ENV_SPEC, "permanent@DDMI-chunk0001:1")
        monkeypatch.setenv(ENV_LEDGER, str(tmp_path / "ledger"))
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        faulty = InteroperabilityStudy(faulty_config)
        with pytest.raises(PermanentError, match="injected permanent fault"):
            faulty.score_sets()
        cache_dir = tmp_path / "cache"
        checkpoints = [
            p.name for p in cache_dir.iterdir() if "-ckpt-" in p.name
        ]
        assert checkpoints
        assert all("-ckpt-DDMI-" in name for name in checkpoints)

        # Resume: exactly the stored checkpoints reload, the three
        # finished scenarios come from their shards, and every set is
        # bit-identical to an undisturbed run.
        monkeypatch.delenv(ENV_SPEC)
        monkeypatch.delenv(ENV_LEDGER)
        cached_before = recorder.counter_value("study.scores.cached")
        resumed = InteroperabilityStudy(faulty_config, resume=True)
        sets = resumed.score_sets()
        assert recorder.counter_value("study.checkpoint.resumed") == len(
            checkpoints
        )
        assert recorder.counter_value("study.scores.cached") - cached_before == 3
        assert list(sets) == list(reference_sets)
        for scenario, score_set in sets.items():
            _assert_identical(score_set, reference_sets[scenario])
        assert not [p for p in cache_dir.iterdir() if "-ckpt-" in p.name]


class TestSalvage:
    def test_skipped_chunk_drops_its_rows_and_only_its_scenario_cache(
        self, reference_sets, faulty_config, forced_pool, recorder,
        monkeypatch, tmp_path,
    ):
        # fail_fast=False in the shared pool: the failed DDMG chunk is
        # skipped, DDMG keeps the other rows in job order and caches
        # nothing, and the other three scenarios are whole and cached.
        monkeypatch.setenv(ENV_SPEC, "permanent@DDMG-chunk0002:1")
        monkeypatch.setenv(ENV_LEDGER, str(tmp_path / "ledger"))
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        study = InteroperabilityStudy(faulty_config, fail_fast=False)
        sets = study.score_sets()
        assert recorder.counter_value("supervisor.skipped") == 1
        assert recorder.counter_value("study.jobs.skipped") == 64

        expected = reference_sets["DDMG"]
        row_of = {
            key: k for k, key in enumerate(zip(
                expected.subject_gallery, expected.subject_probe,
                expected.device_gallery, expected.device_probe,
            ))
        }
        got = sets["DDMG"]
        rows = np.asarray([
            row_of[key] for key in zip(
                got.subject_gallery, got.subject_probe,
                got.device_gallery, got.device_probe,
            )
        ])
        assert len(rows) == len(expected) - 64
        assert np.all(np.diff(rows) > 0)
        np.testing.assert_array_equal(got.scores, expected.scores[rows])

        fresh = InteroperabilityStudy(faulty_config)
        assert fresh.cached_score_set("DDMG") is None
        for scenario in ("DMG", "DMI", "DDMI"):
            _assert_identical(sets[scenario], reference_sets[scenario])
            _assert_identical(
                fresh.cached_score_set(scenario), reference_sets[scenario]
            )
