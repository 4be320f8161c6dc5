"""Persistent gallery index: quality gate, CRUD, restart recovery."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.prefilter import (
    DESCRIPTOR_DIM,
    PrefilterCandidate,
    descriptor_vector,
    merge_shard_candidates,
)
from repro.matcher.types import template_from_arrays
from repro.runtime.cache import NpzDirectory
from repro.runtime.errors import ConfigurationError
from repro.runtime.shm import SharedGalleryStore, SharedGalleryView
from repro.runtime.telemetry import enable_telemetry, get_recorder, set_recorder
from repro.service.gallery import (
    DEFAULT_MAX_NFIQ_LEVEL,
    EnrollmentRejected,
    GalleryIndex,
    GalleryRecord,
    UnknownIdentityError,
)
from repro.service.workers import _WorkerShard

FINGER = "right_index"

_REENROLL_CRASH_CHILD = """
import os
import sys
from pathlib import Path

import numpy as np

from repro.matcher.types import template_from_arrays
from repro.service.gallery import GalleryIndex

with np.load(sys.argv[2]) as saved:
    width, height, dpi = (int(v) for v in saved["size"])
    template = template_from_arrays(
        positions_px=saved["positions_px"], angles=saved["angles"],
        kinds=saved["kinds"], qualities=saved["qualities"],
        width_px=width, height_px=height, resolution_dpi=dpi,
    )
GalleryIndex(Path(sys.argv[1])).enroll("x", template, device="D0")
os._exit(0)  # no close, no flush, no atexit
"""


def _low_quality_template():
    """Four low-confidence minutiae huddled in a corner: NFIQ level 5."""
    return template_from_arrays(
        positions_px=[[10.0, 10.0], [14.0, 12.0], [11.0, 16.0], [15.0, 15.0]],
        angles=[0.1, 1.0, 2.0, 3.0],
        kinds=[1, 2, 1, 2],
        qualities=[10, 12, 9, 11],
        width_px=300,
        height_px=400,
    )


@pytest.fixture()
def gallery(tmp_path):
    return GalleryIndex(tmp_path / "gallery")


class TestEnroll:
    def test_enroll_and_get(self, gallery, tiny_collection):
        template = tiny_collection.get(0, FINGER, "D0", 0).template
        record = gallery.enroll("subject-0", template, device="D0")
        assert isinstance(record, GalleryRecord)
        assert record.identity == "subject-0"
        assert record.device == "D0"
        assert 1 <= record.nfiq_level <= DEFAULT_MAX_NFIQ_LEVEL
        assert 0.0 < record.nfiq_utility <= 1.0
        assert gallery.get("subject-0", device="D0").template == template
        assert ("D0", "subject-0") in gallery
        assert len(gallery) == 1

    def test_reenroll_replaces(self, gallery, tiny_collection):
        first = tiny_collection.get(0, FINGER, "D0", 0).template
        second = tiny_collection.get(0, FINGER, "D0", 1).template
        gallery.enroll("subject-0", first, device="D0")
        gallery.enroll("subject-0", second, device="D0")
        assert len(gallery) == 1
        assert gallery.get("subject-0", device="D0").template == second

    def test_quality_gate_rejects_level_5(self, gallery):
        with pytest.raises(EnrollmentRejected) as excinfo:
            gallery.enroll("mushy", _low_quality_template())
        assert excinfo.value.identity == "mushy"
        assert excinfo.value.level == 5
        assert excinfo.value.max_level == DEFAULT_MAX_NFIQ_LEVEL
        assert len(gallery) == 0

    def test_permissive_ceiling_admits_level_5(self, tmp_path):
        lax = GalleryIndex(tmp_path / "lax", max_nfiq_level=5)
        record = lax.enroll("mushy", _low_quality_template())
        assert record.nfiq_level == 5

    def test_invalid_names_rejected(self, gallery, tiny_collection):
        template = tiny_collection.get(0, FINGER, "D0", 0).template
        with pytest.raises(ConfigurationError):
            gallery.enroll("no spaces", template)
        with pytest.raises(ConfigurationError):
            gallery.enroll("fine", template, device="../escape")
        with pytest.raises(ConfigurationError):
            gallery.enroll("", template)

    def test_invalid_ceiling_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            GalleryIndex(tmp_path / "bad", max_nfiq_level=0)
        with pytest.raises(ConfigurationError):
            GalleryIndex(tmp_path / "bad", max_nfiq_level=6)


class TestDelete:
    def test_delete_removes(self, gallery, tiny_collection):
        template = tiny_collection.get(0, FINGER, "D0", 0).template
        gallery.enroll("subject-0", template, device="D0")
        gallery.delete("subject-0", device="D0")
        assert len(gallery) == 0
        with pytest.raises(UnknownIdentityError):
            gallery.get("subject-0", device="D0")

    def test_delete_unknown_raises(self, gallery):
        with pytest.raises(UnknownIdentityError) as excinfo:
            gallery.delete("ghost", device="D9")
        assert excinfo.value.identity == "ghost"
        assert excinfo.value.device == "D9"


class TestLookups:
    @pytest.fixture()
    def populated(self, gallery, tiny_collection):
        for device in ("D0", "D1"):
            for sid in range(3):
                gallery.enroll(
                    f"subject-{sid}",
                    tiny_collection.get(sid, FINGER, device, 0).template,
                    device=device,
                )
        return gallery

    def test_devices_and_identities(self, populated):
        assert populated.devices() == ["D0", "D1"]
        assert populated.identities("D0") == [
            "subject-0", "subject-1", "subject-2",
        ]
        assert populated.identities() == [
            "subject-0", "subject-1", "subject-2",
        ]

    def test_candidates_per_device_uses_bare_keys(self, populated):
        candidates = populated.candidates(device="D0")
        assert sorted(candidates) == ["subject-0", "subject-1", "subject-2"]

    def test_candidates_cross_device_qualifies_keys(self, populated):
        candidates = populated.candidates()
        assert len(candidates) == 6
        assert "D0/subject-0" in candidates and "D1/subject-0" in candidates

    def test_size_and_lookup_follow_candidates(self, populated):
        for device in (None, "D0", "D1", "D9"):
            candidates = populated.candidates(device=device)
            keys = sorted(candidates)
            assert populated.size(device) == len(candidates)
            assert populated.lookup(keys, device) == [candidates[k] for k in keys]
        populated.delete("subject-1", device="D0")
        assert populated.size("D0") == 2
        assert populated.size() == 5

    def test_stats_shape(self, populated):
        stats = populated.stats()
        assert stats["enrolled"] == 6
        assert stats["devices"] == {"D0": 3, "D1": 3}
        assert stats["max_nfiq_level"] == DEFAULT_MAX_NFIQ_LEVEL
        assert stats["disk"]["entries"] == 6
        assert stats["disk"]["bytes"] > 0


class TestPersistence:
    def test_survives_restart(self, tmp_path, tiny_collection):
        root = tmp_path / "gallery"
        first = GalleryIndex(root)
        for sid in range(3):
            first.enroll(
                f"subject-{sid}",
                tiny_collection.get(sid, FINGER, "D0", 0).template,
                device="D0",
            )
        original = first.get("subject-1", device="D0")

        reborn = GalleryIndex(root)
        assert len(reborn) == 3
        restored = reborn.get("subject-1", device="D0")
        assert restored.nfiq_level == original.nfiq_level
        assert restored.nfiq_utility == pytest.approx(original.nfiq_utility)
        np.testing.assert_array_equal(
            restored.template.positions_px(), original.template.positions_px()
        )
        np.testing.assert_array_equal(
            restored.template.angles(), original.template.angles()
        )
        assert restored.template.width_px == original.template.width_px

    def test_restored_templates_score_identically(
        self, tmp_path, tiny_collection, matcher
    ):
        root = tmp_path / "gallery"
        enrolled = tiny_collection.get(2, FINGER, "D0", 0).template
        GalleryIndex(root).enroll("subject-2", enrolled, device="D0")
        probe = tiny_collection.get(2, FINGER, "D0", 1).template
        restored = GalleryIndex(root).get("subject-2", device="D0").template
        assert matcher.match(probe, restored) == matcher.match(probe, enrolled)

    def test_corrupt_record_healed_from_wal(self, tmp_path, tiny_collection):
        # A torn shard is dropped at reload, but the enrollment is still
        # in the WAL, so replay re-materializes it: nothing acked is lost.
        root = tmp_path / "gallery"
        first = GalleryIndex(root)
        for sid in range(2):
            first.enroll(
                f"subject-{sid}",
                tiny_collection.get(sid, FINGER, "D0", 0).template,
                device="D0",
            )
        victim = root / "D0" / "subject-0.npz"
        assert victim.exists()
        victim.write_bytes(b"torn mid-write")

        reborn = GalleryIndex(root)
        assert len(reborn) == 2
        assert ("D0", "subject-0") in reborn
        assert reborn.corrupt_dropped == 1

    def test_reload_opens_each_bundle_once(
        self, tmp_path, tiny_collection, monkeypatch
    ):
        root = tmp_path / "gallery"
        with GalleryIndex(root) as first:
            for device in ("D0", "D1"):
                for sid in range(3):
                    first.enroll(
                        f"subject-{sid}",
                        tiny_collection.get(sid, FINGER, device, 0).template,
                        device=device,
                    )
        (root / "D1" / "subject-2.npz").write_bytes(b"torn mid-write")
        opened = []
        real_load_entry = NpzDirectory.load_entry

        def counting_load_entry(store, key):
            opened.append(str(store.path_for(key)))
            return real_load_entry(store, key)

        monkeypatch.setattr(NpzDirectory, "load_entry", counting_load_entry)
        previous = get_recorder()
        recorder = enable_telemetry()
        try:
            reborn = GalleryIndex(root)
        finally:
            set_recorder(previous)
        assert len(reborn) == 6
        # Six records, each read once; the index is derived, not read.
        assert len(opened) == len(set(opened)) == 6
        assert not any("__index__" in path for path in opened)
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["gallery.hit"] == 5
        assert counters["gallery.corrupt"] == 1
        assert counters["gallery.miss"] == 1
        assert not any(name.startswith("gallery.index.") for name in counters)

    def test_corrupt_record_dropped_and_counted_without_wal(
        self, tmp_path, tiny_collection
    ):
        # Once the WAL no longer covers a record (compacted away), a
        # corrupt shard is dropped — and counted, not just logged.
        import shutil

        root = tmp_path / "gallery"
        first = GalleryIndex(root)
        for sid in range(2):
            first.enroll(
                f"subject-{sid}",
                tiny_collection.get(sid, FINGER, "D0", 0).template,
                device="D0",
            )
        (root / "D0" / "subject-0.npz").write_bytes(b"torn mid-write")
        shutil.rmtree(root / "__wal__")

        reborn = GalleryIndex(root)
        assert len(reborn) == 1
        assert ("D0", "subject-1") in reborn
        assert ("D0", "subject-0") not in reborn
        assert reborn.corrupt_dropped == 1
        assert reborn.stats()["corrupt_dropped"] == 1

    def test_foreign_files_ignored_at_reload(self, tmp_path, tiny_collection):
        root = tmp_path / "gallery"
        GalleryIndex(root).enroll(
            "subject-0",
            tiny_collection.get(0, FINGER, "D0", 0).template,
            device="D0",
        )
        (root / "D0" / "notes.txt").write_text("not a record")
        (root / "has space").mkdir()
        assert len(GalleryIndex(root)) == 1


class TestDescriptorIndex:
    """Tentpole: the per-shard descriptor matrix behind two-stage identify."""

    @pytest.fixture()
    def populated(self, gallery, tiny_collection):
        for device in ("D0", "D1"):
            for sid in range(3):
                gallery.enroll(
                    f"subject-{sid}",
                    tiny_collection.get(sid, FINGER, device, 0).template,
                    device=device,
                )
        return gallery

    def test_enroll_stores_descriptor_on_record(self, gallery, tiny_collection):
        template = tiny_collection.get(0, FINGER, "D0", 0).template
        record = gallery.enroll("subject-0", template, device="D0")
        assert record.descriptor.shape == (DESCRIPTOR_DIM,)
        np.testing.assert_allclose(record.descriptor, descriptor_vector(template))

    def test_matrix_tracks_enrollment(self, populated):
        matrix = populated.descriptor_matrix("D0")
        assert matrix.shape == (3, DESCRIPTOR_DIM)
        assert np.isfinite(matrix).all()
        stats = populated.stats()
        assert stats["index"]["descriptor_dim"] == DESCRIPTOR_DIM
        assert stats["index"]["indexed"] == {"D0": 3, "D1": 3}

    def test_prefilter_ranks_the_mate_first_by_construction(
        self, populated, tiny_collection
    ):
        # Probing with the exact enrolled impression: distance 0 to its
        # own descriptor, so rank 1 is guaranteed, not just likely.
        probe = tiny_collection.get(1, FINGER, "D0", 0).template
        survivors = populated.prefilter(probe, device="D0", k=2)
        assert survivors[0].key == "subject-1"
        assert survivors[0].rank == 1
        assert survivors[0].distance == pytest.approx(0.0, abs=1e-9)

    def test_prefilter_cross_shard_prefixes_keys(self, populated, tiny_collection):
        probe = tiny_collection.get(1, FINGER, "D0", 0).template
        survivors = populated.prefilter(probe, device=None, k=4)
        assert survivors[0].key == "D0/subject-1"
        assert all("/" in c.key for c in survivors)
        assert [c.rank for c in survivors] == [1, 2, 3, 4]

    def test_delete_shrinks_the_index(self, populated, tiny_collection):
        populated.delete("subject-1", device="D0")
        assert populated.descriptor_matrix("D0").shape == (2, DESCRIPTOR_DIM)
        probe = tiny_collection.get(1, FINGER, "D0", 0).template
        keys = {c.key for c in populated.prefilter(probe, device="D0", k=3)}
        assert keys == {"subject-0", "subject-2"}

    @pytest.mark.parametrize("order", [("dup-b", "dup-a"), ("dup-a", "dup-b")])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_duplicate_templates_shortlist_matches_worker_shards(
        self, gallery, tiny_collection, order, n_workers
    ):
        # Identical descriptors tie at every place; local and pooled
        # shortlists must both resolve the tie by key, whatever the
        # insertion order or the shard each duplicate lands on.
        same = tiny_collection.get(0, FINGER, "D0", 0).template
        for identity in order:
            for device in ("D0", "D1"):
                gallery.enroll(identity, same, device=device)
        for sid in range(1, 4):
            gallery.enroll(
                f"subject-{sid}",
                tiny_collection.get(sid, FINGER, "D0", 0).template,
                device="D0",
            )
        probe = tiny_collection.get(0, FINGER, "D0", 1).template
        vector = descriptor_vector(probe)
        with SharedGalleryStore.pack_gallery(gallery.records()) as store:
            view = SharedGalleryView.attach(store.handle())
            try:
                shards = [_WorkerShard(view, w, n_workers) for w in range(n_workers)]
                for device in (None, "D0"):
                    for k in (1, 2, 3, 5, 9):
                        local = gallery.prefilter(probe, device=device, k=k)
                        pooled = merge_shard_candidates(
                            [
                                [
                                    PrefilterCandidate(*row)
                                    for row in shard.prefilter(vector, device, k)[1]
                                ]
                                for shard in shards
                            ],
                            k,
                        )
                        assert pooled == local
                        prefix = "D0/" if device is None else ""
                        assert local[0].key == prefix + "dup-a"
            finally:
                view.close()

    def test_reenroll_replaces_descriptor(self, gallery, tiny_collection):
        first = tiny_collection.get(0, FINGER, "D0", 0).template
        second = tiny_collection.get(0, FINGER, "D0", 1).template
        gallery.enroll("subject-0", first, device="D0")
        gallery.enroll("subject-0", second, device="D0")
        assert gallery.descriptor_matrix("D0").shape == (1, DESCRIPTOR_DIM)
        np.testing.assert_allclose(
            gallery.descriptor_matrix("D0")[0], descriptor_vector(second)
        )

    def test_reserved_index_names_rejected(self, gallery, tiny_collection):
        template = tiny_collection.get(0, FINGER, "D0", 0).template
        with pytest.raises(ConfigurationError):
            gallery.enroll("__index__", template)
        with pytest.raises(ConfigurationError):
            gallery.enroll("fine", template, device="__index__")


class TestDescriptorPersistence:
    """The matrix is derived from the records at every start, so it
    survives restart, ignores leftovers and never blocks recovery."""

    def _populate(self, root, tiny_collection, n=3):
        with GalleryIndex(root) as gallery:
            for sid in range(n):
                gallery.enroll(
                    f"subject-{sid}",
                    tiny_collection.get(sid, FINGER, "D0", 0).template,
                    device="D0",
                )
        return gallery

    def test_index_flush_is_deferred(self, tmp_path, tiny_collection):
        # Enrolls keep the matrix in memory only: no O(gallery) matrix
        # write per enroll, and none deferred to a later flush either.
        root = tmp_path / "gallery"
        gallery = GalleryIndex(root)
        for sid in range(2):
            gallery.enroll(
                f"subject-{sid}",
                tiny_collection.get(sid, FINGER, "D0", 0).template,
                device="D0",
            )
        assert gallery.descriptor_matrix("D0").shape == (2, DESCRIPTOR_DIM)
        assert not (root / "__index__").exists()
        assert not hasattr(gallery, "flush_indexes")
        gallery.close()

    def test_close_flushes_dirty_index(self, tmp_path, tiny_collection):
        # close() leaves nothing the index depends on unwritten: the
        # records alone rebuild the matrix held before close, and no
        # matrix file is written at close.
        root = tmp_path / "gallery"
        with GalleryIndex(root) as gallery:
            gallery.enroll(
                "subject-0",
                tiny_collection.get(0, FINGER, "D0", 0).template,
                device="D0",
            )
            expected = gallery.descriptor_matrix("D0")
        assert not (root / "__index__").exists()

        reborn = GalleryIndex(root)
        np.testing.assert_array_equal(reborn.descriptor_matrix("D0"), expected)

    def test_matrix_persisted_and_adopted_on_restart(self, tmp_path, tiny_collection):
        # The matrix survives restart by being derived from the records,
        # row for row, without any file under __index__/.
        root = tmp_path / "gallery"
        first = self._populate(root, tiny_collection)
        assert not (root / "__index__").exists()

        reborn = GalleryIndex(root)
        np.testing.assert_array_equal(
            reborn.descriptor_matrix("D0"), first.descriptor_matrix("D0")
        )

    def test_stale_matrix_detected_and_rebuilt(self, tmp_path, tiny_collection):
        # A leftover matrix from an older version that names fewer
        # identities than the records is neither read nor allowed to
        # shadow them.
        root = tmp_path / "gallery"
        first = self._populate(root, tiny_collection, n=2)
        (root / "__index__").mkdir()
        np.savez_compressed(
            root / "__index__" / "D0.npz",
            matrix=first.descriptor_matrix("D0")[:1],
            __meta__=np.frombuffer(
                json.dumps({"identities": ["subject-0"]}).encode("utf-8"),
                dtype=np.uint8,
            ),
        )
        with GalleryIndex(root) as gallery:
            gallery.enroll(
                "subject-2",
                tiny_collection.get(2, FINGER, "D0", 0).template,
                device="D0",
            )
            expected = gallery.descriptor_matrix("D0")

        reborn = GalleryIndex(root)
        assert sorted((root / "__index__").iterdir()) == [root / "__index__" / "D0.npz"]
        assert reborn.descriptor_matrix("D0").shape == (3, DESCRIPTOR_DIM)
        np.testing.assert_array_equal(reborn.descriptor_matrix("D0"), expected)
        probe = tiny_collection.get(2, FINGER, "D0", 0).template
        assert reborn.prefilter(probe, device="D0", k=1)[0].key == "subject-2"

    def test_reenroll_crash_reloads_the_new_descriptor(
        self, tmp_path, tiny_collection
    ):
        # Re-enroll an identity, then die without any shutdown: the
        # reloaded index must hold the new template's row, not the row
        # of the template it replaced.
        root = tmp_path / "gallery"
        old = tiny_collection.get(0, FINGER, "D0", 0).template
        new = tiny_collection.get(1, FINGER, "D0", 0).template
        with GalleryIndex(root) as gallery:
            gallery.enroll("x", old, device="D0")
        template_file = tmp_path / "new.npz"
        np.savez(
            template_file,
            positions_px=new.positions_px(),
            angles=new.angles(),
            kinds=new.kinds(),
            qualities=new.qualities(),
            size=np.array([new.width_px, new.height_px, new.resolution_dpi]),
        )
        script = tmp_path / "reenroll.py"
        script.write_text(_REENROLL_CRASH_CHILD)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, str(script), str(root), str(template_file)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr

        reborn = GalleryIndex(root)
        assert reborn.get("x", device="D0").template == new
        np.testing.assert_array_equal(
            reborn.descriptor_matrix("D0")[0], descriptor_vector(new)
        )

    def test_corrupt_matrix_file_rebuilds_from_records(
        self, tmp_path, tiny_collection
    ):
        root = tmp_path / "gallery"
        first = self._populate(root, tiny_collection)
        expected = first.descriptor_matrix("D0")
        (root / "__index__").mkdir()
        (root / "__index__" / "D0.npz").write_bytes(b"garbage")

        reborn = GalleryIndex(root)
        assert len(reborn) == 3
        np.testing.assert_allclose(reborn.descriptor_matrix("D0"), expected)

    def test_missing_index_dir_rebuilds_silently(self, tmp_path, tiny_collection):
        root = tmp_path / "gallery"
        self._populate(root, tiny_collection)
        assert not (root / "__index__").exists()

        reborn = GalleryIndex(root)
        assert reborn.descriptor_matrix("D0").shape == (3, DESCRIPTOR_DIM)

    def test_record_without_descriptor_recomputed_at_load(
        self, tmp_path, tiny_collection
    ):
        # Records enrolled before the prefilter have no stored
        # descriptor (and, that old, are in the zip layout) — the loader
        # recomputes instead of failing or skipping.
        root = tmp_path / "gallery"
        self._populate(root, tiny_collection, n=1)
        arrays, meta = NpzDirectory(root / "D0").load_entry("subject-0")
        arrays.pop("descriptor")
        meta.pop("descriptor_version")
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        np.savez(root / "D0" / "subject-0.npz", **arrays)

        reborn = GalleryIndex(root)
        record = reborn.get("subject-0", device="D0")
        np.testing.assert_allclose(
            record.descriptor, descriptor_vector(record.template)
        )
        assert reborn.descriptor_matrix("D0").shape == (1, DESCRIPTOR_DIM)
