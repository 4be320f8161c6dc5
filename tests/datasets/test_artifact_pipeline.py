"""Load-or-build acquisition: determinism, parallel equality, corruption."""

import numpy as np
import pytest

from repro.datasets import (
    build_collection,
    load_quality_arrays,
    subject_artifact_digest,
    warm_artifacts,
)
from repro.runtime.artifacts import ArtifactStore
from repro.runtime.config import StudyConfig
from repro.runtime.telemetry import enable_telemetry, get_recorder, set_recorder
from repro.sensors.protocol import ProtocolSettings


@pytest.fixture()
def recorder():
    previous = get_recorder()
    live = enable_telemetry()
    yield live
    set_recorder(previous)


CFG = StudyConfig(n_subjects=4, master_seed=77)


class TestDigest:
    def test_deterministic_across_calls(self):
        assert subject_artifact_digest(CFG, 0) == subject_artifact_digest(
            StudyConfig(n_subjects=4, master_seed=77), 0
        )

    def test_distinct_per_subject(self):
        digests = {subject_artifact_digest(CFG, s) for s in range(4)}
        assert len(digests) == 4

    def test_seed_changes_digest(self):
        other = StudyConfig(n_subjects=4, master_seed=78)
        assert subject_artifact_digest(CFG, 0) != subject_artifact_digest(other, 0)

    def test_protocol_changes_digest(self):
        gated = ProtocolSettings(quality_gating=True)
        assert subject_artifact_digest(CFG, 0) != subject_artifact_digest(
            CFG, 0, gated
        )

    def test_storage_fields_do_not_change_digest(self, tmp_path):
        relocated = CFG.replace(
            artifact_dir=str(tmp_path), cache_dir=str(tmp_path), n_workers=2
        )
        assert subject_artifact_digest(CFG, 1) == subject_artifact_digest(
            relocated, 1
        )


class TestLoadOrBuild:
    def test_warm_equals_cold(self, tmp_path):
        config = CFG.replace(artifact_dir=str(tmp_path / "arts"))
        cold = build_collection(config)
        warm = build_collection(config)
        assert warm == cold

    def test_warm_equals_storeless(self, tmp_path):
        config = CFG.replace(artifact_dir=str(tmp_path / "arts"))
        build_collection(config)
        assert build_collection(config) == build_collection(CFG)

    def test_warm_load_hits_counted(self, tmp_path, recorder):
        config = CFG.replace(artifact_dir=str(tmp_path / "arts"))
        build_collection(config)
        assert recorder.metrics.counter_value("artifacts.miss") == 4
        build_collection(config)
        assert recorder.metrics.counter_value("artifacts.hit") == 4
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["acquisition.subjects_loaded"] == 4
        assert counters["acquisition.subjects_built"] == 4

    def test_partial_store_builds_only_misses(self, tmp_path, recorder):
        config = CFG.replace(artifact_dir=str(tmp_path / "arts"))
        cold = build_collection(config)
        store = ArtifactStore(config.artifact_dir)
        victim = subject_artifact_digest(config, 2)
        assert store.invalidate("impressions", victim)
        rebuilt = build_collection(config)
        assert rebuilt == cold
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["acquisition.subjects_built"] == 4 + 1

    def test_corrupt_entry_rebuilt(self, tmp_path):
        arts = tmp_path / "arts"
        config = CFG.replace(artifact_dir=str(arts))
        cold = build_collection(config)
        victim = subject_artifact_digest(config, 1)
        (arts / "impressions" / f"{victim}.npz").write_bytes(
            b"PK\x03\x04" + b"\x00" * 64
        )
        assert build_collection(config) == cold
        # The rebuilt entry replaced the torn one, so the next run is warm.
        store = ArtifactStore(str(arts))
        assert store.load("impressions", victim) is not None

    def test_undecodable_bundle_rebuilt(self, tmp_path, recorder):
        # A structurally valid npz whose arrays are inconsistent must be
        # treated exactly like a torn file: dropped, rebuilt, re-stored.
        arts = tmp_path / "arts"
        config = CFG.replace(artifact_dir=str(arts))
        cold = build_collection(config)
        store = ArtifactStore(str(arts))
        victim = subject_artifact_digest(config, 0)
        bundle = store.load("impressions", victim)
        bundle["minutia_offsets"] = bundle["minutia_offsets"][:-1]
        store.store("impressions", victim, bundle)
        assert build_collection(config) == cold
        assert recorder.metrics.counter_value("artifacts.corrupt") == 1

    def test_different_seed_is_cold(self, tmp_path, recorder):
        arts = str(tmp_path / "arts")
        build_collection(CFG.replace(artifact_dir=arts))
        build_collection(
            StudyConfig(n_subjects=4, master_seed=78, artifact_dir=arts)
        )
        assert recorder.metrics.counter_value("artifacts.hit") == 0


class TestParallelAcquisition:
    def test_parallel_cold_equals_serial(self, tmp_path):
        base = StudyConfig(n_subjects=8, master_seed=321)
        serial = build_collection(base)
        parallel = build_collection(
            base.replace(n_workers=2, artifact_dir=str(tmp_path / "arts"))
        )
        assert parallel == serial

    def test_serial_warm_load_after_parallel_build(self, tmp_path):
        arts = str(tmp_path / "arts")
        base = StudyConfig(n_subjects=8, master_seed=321)
        parallel = build_collection(base.replace(n_workers=2, artifact_dir=arts))
        warm = build_collection(base.replace(artifact_dir=arts))
        assert warm == parallel

    def test_pool_fanout_equals_serial(self, tmp_path, monkeypatch, recorder):
        # resolve_worker_count caps to the machine's CPUs, so on a 1-CPU
        # runner the pool branch would silently degrade to serial; force
        # a real 2-process pool to exercise worker-side acquisition.
        import repro.datasets.wvu2012 as wvu2012

        monkeypatch.setattr(wvu2012, "resolve_worker_count", lambda n: 2)
        base = StudyConfig(n_subjects=8, master_seed=5)
        pooled = build_collection(
            base.replace(n_workers=2, artifact_dir=str(tmp_path / "arts"))
        )
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["acquire.parallel.subjects"] == 8
        assert "acquire.parallel.seconds" in recorder.metrics.snapshot()[
            "histograms"
        ]
        monkeypatch.undo()
        assert pooled == build_collection(base)

    def test_pooled_acquisition_counters_equal_serial(self, monkeypatch, recorder):
        import repro.datasets.wvu2012 as wvu2012

        def acquisition_counters(config):
            live = enable_telemetry()
            build_collection(config)
            return {
                name: value
                for name, value in live.metrics.snapshot()["counters"].items()
                if name.startswith("acquisition.")
            }

        base = StudyConfig(n_subjects=8, master_seed=5)
        serial = acquisition_counters(base)
        monkeypatch.setattr(wvu2012, "resolve_worker_count", lambda n: 2)
        pooled = acquisition_counters(base.replace(n_workers=2))
        assert serial["acquisition.attempts"] >= serial["acquisition.impressions"] > 0
        assert pooled == serial


class TestQualityTier:
    def test_quality_arrays_complete_after_build(self, tmp_path):
        config = CFG.replace(artifact_dir=str(tmp_path / "arts"))
        collection = build_collection(config)
        arrays = load_quality_arrays(config)
        assert arrays is not None
        assert len(arrays["nfiq"]) == len(collection)
        by_key = {
            (i.subject_id, i.finger_label, i.device_id, i.set_index): i.nfiq
            for i in collection
        }
        for k in range(len(arrays["nfiq"])):
            key = (
                int(arrays["subject_id"][k]),
                str(arrays["finger"][k]),
                str(arrays["device"][k]),
                int(arrays["set_index"][k]),
            )
            assert by_key[key] == int(arrays["nfiq"][k])

    def test_quality_arrays_none_when_cold(self, tmp_path):
        assert load_quality_arrays(
            CFG.replace(artifact_dir=str(tmp_path / "empty"))
        ) is None

    def test_quality_arrays_none_when_disabled(self):
        assert load_quality_arrays(CFG) is None


class TestWarmArtifacts:
    def test_warm_reports_stats(self, tmp_path):
        config = CFG.replace(artifact_dir=str(tmp_path / "arts"))
        stats = warm_artifacts(config)
        assert stats["impressions"]["entries"] == 4
        assert stats["quality"]["entries"] == 4
        assert stats["total"]["bytes"] > 0

    def test_warm_then_build_is_all_hits(self, tmp_path, recorder):
        config = CFG.replace(artifact_dir=str(tmp_path / "arts"))
        warm_artifacts(config)
        build_collection(config)
        assert recorder.metrics.counter_value("artifacts.hit") == 4
