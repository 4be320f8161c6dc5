"""Durability and replication: crash-safe enrollment, follower parity.

Three layers of the durability contract:

* gallery-level — the write-ahead log re-materializes shard files that
  vanish or rot between restarts (acked ⇒ durable);
* process-level — a server SIGKILLed mid-enroll-burst loses nothing it
  acknowledged (the kill-9 recovery scenario from the robustness plan);
* replica-level — a ``--follow`` server tailing the primary's WAL
  answers reads byte-identically at ``lag_records == 0`` and refuses
  writes with the ``read_only`` error code.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import gallery as gallery_module
from repro.service import (
    BatchingConfig,
    GalleryIndex,
    GalleryReadOnlyError,
    ServiceClient,
    ServiceClientError,
    ServiceRunner,
    VerificationServer,
    parse_exposition,
    sample_value,
)

FINGER = "right_index"
SUBJECTS = (0, 1, 2)


def _server(gallery, matcher, **kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("batching", BatchingConfig())
    return VerificationServer(gallery, matcher=matcher, **kwargs)


class TestGalleryDurability:
    def test_wal_rebuilds_deleted_shard_file(self, tmp_path, tiny_collection):
        root = tmp_path / "gallery"
        with GalleryIndex(root) as gallery:
            for sid in SUBJECTS:
                gallery.enroll(
                    f"subject-{sid}",
                    tiny_collection.get(sid, FINGER, "D0", 0).template,
                    device="D0",
                )
        (root / "D0" / "subject-1.npz").unlink()

        reborn = GalleryIndex(root)
        assert len(reborn) == len(SUBJECTS)
        healed = reborn.get("subject-1", device="D0")
        assert healed.template == tiny_collection.get(1, FINGER, "D0", 0).template

    def test_replaying_an_applied_log_builds_no_descriptor(
        self, tmp_path, tiny_collection, monkeypatch
    ):
        root = tmp_path / "gallery"
        with GalleryIndex(root) as gallery:
            for sid in SUBJECTS:
                gallery.enroll(
                    f"subject-{sid}",
                    tiny_collection.get(sid, FINGER, "D0", 0).template,
                    device="D0",
                )
        built = []
        real = gallery_module.descriptor_vector
        monkeypatch.setattr(
            gallery_module, "descriptor_vector",
            lambda template: built.append(template) or real(template),
        )
        with GalleryIndex(root) as reborn:
            assert len(reborn) == len(SUBJECTS)
        assert built == []

        # The log is still retained: a vanished record is rebuilt from it,
        # and only that one.
        (root / "D0" / "subject-1.npz").unlink()
        with GalleryIndex(root) as healed:
            assert ("D0", "subject-1") in healed
        assert built == [tiny_collection.get(1, FINGER, "D0", 0).template]

    def test_wal_rebuilds_entire_gallery(self, tmp_path, tiny_collection):
        import shutil

        root = tmp_path / "gallery"
        with GalleryIndex(root) as gallery:
            for sid in SUBJECTS:
                gallery.enroll(
                    f"subject-{sid}",
                    tiny_collection.get(sid, FINGER, "D0", 0).template,
                    device="D0",
                )
        shutil.rmtree(root / "D0")

        reborn = GalleryIndex(root)
        assert len(reborn) == len(SUBJECTS)
        assert reborn.identities("D0") == [f"subject-{s}" for s in SUBJECTS]

    def test_replay_respects_logged_deletes(self, tmp_path, tiny_collection):
        root = tmp_path / "gallery"
        with GalleryIndex(root) as gallery:
            for sid in SUBJECTS:
                gallery.enroll(
                    f"subject-{sid}",
                    tiny_collection.get(sid, FINGER, "D0", 0).template,
                    device="D0",
                )
            gallery.delete("subject-0", device="D0")
        reborn = GalleryIndex(root)
        assert len(reborn) == 2
        assert ("D0", "subject-0") not in reborn

    def test_readonly_gallery_refuses_writes(self, tmp_path, tiny_collection):
        root = tmp_path / "gallery"
        template = tiny_collection.get(0, FINGER, "D0", 0).template
        with GalleryIndex(root) as gallery:
            gallery.enroll("subject-0", template, device="D0")

        replica = GalleryIndex(root, readonly=True)
        assert len(replica) == 1
        with pytest.raises(GalleryReadOnlyError):
            replica.enroll("subject-9", template, device="D0")
        with pytest.raises(GalleryReadOnlyError):
            replica.delete("subject-0", device="D0")


_KILL9_CHILD = """
import sys
from pathlib import Path

from repro.api import StudyConfig, build_collection
from repro.service.gallery import GalleryIndex

template = (
    build_collection(StudyConfig(n_subjects=2, master_seed=7))
    .get(0, "right_index", "D0", 0)
    .template
)
gallery = GalleryIndex(Path(sys.argv[1]))
i = 0
while True:
    gallery.enroll(f"id-{i:04d}", template, device="D0")
    print(f"id-{i:04d}", flush=True)  # the ack: past this line => durable
    i += 1
"""


class TestKillNineRecovery:
    def test_sigkill_mid_burst_loses_no_acked_enrollment(self, tmp_path):
        """SIGKILL a process mid-enroll-burst; every acked write survives."""
        root = tmp_path / "gallery"
        script = tmp_path / "burst.py"
        script.write_text(_KILL9_CHILD)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")

        child = subprocess.Popen(
            [sys.executable, str(script), str(root)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        acked = []
        try:
            deadline = time.monotonic() + 120.0
            while len(acked) < 5 and time.monotonic() < deadline:
                line = child.stdout.readline()
                if not line:
                    break
                acked.append(line.strip())
        finally:
            child.kill()  # SIGKILL: no atexit, no flush, no cleanup
            child.wait(timeout=30)
        assert len(acked) >= 5, (
            f"burst child never got going: {child.stderr.read()}"
        )

        reborn = GalleryIndex(root)
        present = set(reborn.identities("D0"))
        missing = [i for i in acked if i not in present]
        assert not missing, f"acked enrollments lost across kill -9: {missing}"
        # Unacked work may appear (logged before the kill landed) but
        # only whole: every surviving record loads and matches its name.
        for identity in present:
            record = reborn.get(identity, device="D0")
            assert record.identity == identity
            assert record.template.minutiae


def _follower_pair(root, matcher):
    follower_gallery = GalleryIndex(root, readonly=True)
    return _server(follower_gallery, matcher, follow=root / "__wal__")


@pytest.fixture()
def replicated(tmp_path, tiny_collection, matcher):
    """A primary with three enrollments plus a follower tailing its WAL."""
    root = tmp_path / "gallery"
    with ServiceRunner(_server(GalleryIndex(root), matcher)) as (phost, pport):
        with ServiceClient(phost, pport) as primary:
            for sid in SUBJECTS:
                primary.enroll(
                    f"subject-{sid}",
                    tiny_collection.get(sid, FINGER, "D0", 0).template,
                    device="D0",
                )
            with ServiceRunner(_follower_pair(root, matcher)) as (fhost, fport):
                with ServiceClient(fhost, fport) as follower:
                    follower.wait_until_healthy()
                    yield primary, follower


def _scrub_timing(reply):
    """Drop the one legitimately nondeterministic field before comparing."""
    if isinstance(reply.get("search"), dict):
        reply["search"].pop("prefilter_seconds", None)
    return reply


class TestFollowerReplica:
    def test_healthz_reports_replication(self, replicated):
        primary, follower = replicated
        p = primary.healthz()["replication"]
        f = follower.healthz()["replication"]
        assert p["role"] == "primary"
        assert f["role"] == "follower"
        assert f["lag_records"] == 0
        assert f["applied_lsn"] == p["applied_lsn"] == len(SUBJECTS)

    def test_verify_is_bit_identical(self, replicated, tiny_collection):
        primary, follower = replicated
        probe = tiny_collection.get(0, FINGER, "D0", 1).template
        a = primary.verify("subject-0", probe, device="D0")
        b = follower.verify("subject-0", probe, device="D0")
        assert a == b
        assert a["decision"] == "accept"

    @pytest.mark.parametrize("mode", ["exact", "two_stage"])
    def test_identify_is_bit_identical(self, replicated, tiny_collection, mode):
        primary, follower = replicated
        probe = tiny_collection.get(1, FINGER, "D0", 1).template
        a = _scrub_timing(primary.identify(probe, device="D0", mode=mode))
        b = _scrub_timing(follower.identify(probe, device="D0", mode=mode))
        assert a == b
        assert a["best"]["identity"] == "subject-1"

    def test_writes_rejected_with_read_only(self, replicated, tiny_collection):
        _, follower = replicated
        template = tiny_collection.get(3, FINGER, "D0", 0).template
        with pytest.raises(ServiceClientError) as excinfo:
            follower.enroll("subject-3", template, device="D0")
        assert excinfo.value.status == 403
        assert excinfo.value.code == "read_only"
        with pytest.raises(ServiceClientError) as excinfo:
            follower.delete("subject-0", device="D0")
        assert excinfo.value.status == 403
        assert excinfo.value.code == "read_only"

    def test_live_writes_propagate(self, replicated, tiny_collection):
        primary, follower = replicated
        template = tiny_collection.get(3, FINGER, "D0", 0).template
        primary.enroll("subject-3", template, device="D0")

        health = follower.healthz()["replication"]  # healthz drains first
        assert health["lag_records"] == 0
        assert health["applied_lsn"] == len(SUBJECTS) + 1
        probe = tiny_collection.get(3, FINGER, "D0", 1).template
        assert follower.verify("subject-3", probe, device="D0")[
            "decision"
        ] == "accept"

        primary.delete("subject-3", device="D0")
        assert follower.healthz()["replication"]["applied_lsn"] == (
            len(SUBJECTS) + 2
        )
        with pytest.raises(ServiceClientError) as excinfo:
            follower.verify("subject-3", probe, device="D0")
        assert excinfo.value.status == 404

    def test_follower_metrics_expose_role_and_lag(self, replicated):
        _, follower = replicated
        families = parse_exposition(follower.metrics())
        assert sample_value(
            families, "repro_replication_role", {"role": "follower"}
        ) == 1
        assert sample_value(
            families, "repro_replication_lag_records", {}
        ) == 0
        assert sample_value(families, "repro_replication_broken", {}) == 0

    def test_client_routes_reads_to_replica(
        self, tmp_path, tiny_collection, matcher
    ):
        root = tmp_path / "gallery"
        with ServiceRunner(_server(GalleryIndex(root), matcher)) as (ph, pp):
            with ServiceClient(ph, pp) as seed:
                seed.enroll(
                    "subject-0",
                    tiny_collection.get(0, FINGER, "D0", 0).template,
                    device="D0",
                )
            with ServiceRunner(_follower_pair(root, matcher)) as (fh, fp):
                with ServiceClient(fh, fp) as probe_client:
                    probe_client.wait_until_healthy()
                with ServiceClient(ph, pp, follower=(fh, fp)) as combined:
                    probe = tiny_collection.get(0, FINGER, "D0", 1).template
                    reply = combined.verify("subject-0", probe, device="D0")
                    assert reply["decision"] == "accept"
                    # The replica really answered: its request id is ours.
                    assert combined.last_request_id == (
                        combined.follower.last_request_id
                    )

    def test_client_falls_back_when_replica_dies(
        self, tmp_path, tiny_collection, matcher
    ):
        root = tmp_path / "gallery"
        with ServiceRunner(_server(GalleryIndex(root), matcher)) as (ph, pp):
            # Point the follower slot at a port nobody listens on.
            with ServiceClient(ph, pp, follower=("127.0.0.1", 1)) as client:
                client.enroll(
                    "subject-0",
                    tiny_collection.get(0, FINGER, "D0", 0).template,
                    device="D0",
                )
                probe = tiny_collection.get(0, FINGER, "D0", 1).template
                reply = client.verify("subject-0", probe, device="D0")
                assert reply["decision"] == "accept"


class TestFollowerFleet:
    def test_reads_round_robin_across_replicas(
        self, tmp_path, tiny_collection, matcher
    ):
        root = tmp_path / "gallery"
        with ServiceRunner(_server(GalleryIndex(root), matcher)) as (ph, pp):
            with ServiceClient(ph, pp) as seed:
                seed.enroll(
                    "subject-0",
                    tiny_collection.get(0, FINGER, "D0", 0).template,
                    device="D0",
                )
            with ServiceRunner(_follower_pair(root, matcher)) as (f1h, f1p):
                with ServiceRunner(_follower_pair(root, matcher)) as (f2h, f2p):
                    for fh, fp in ((f1h, f1p), (f2h, f2p)):
                        with ServiceClient(fh, fp) as ready:
                            ready.wait_until_healthy()
                    probe = tiny_collection.get(0, FINGER, "D0", 1).template
                    with ServiceClient(
                        ph, pp, followers=[(f1h, f1p), (f2h, f2p)]
                    ) as fleet:
                        served_by = []
                        for _ in range(4):
                            reply = fleet.verify(
                                "subject-0", probe, device="D0"
                            )
                            assert reply["decision"] == "accept"
                            served_by.append(
                                [
                                    replica.last_request_id
                                    for replica in fleet.followers
                                ].index(fleet.last_request_id)
                            )
                        # Successive reads alternate replicas.
                        assert served_by == [0, 1, 0, 1]

    def test_dead_first_replica_is_skipped(
        self, tmp_path, tiny_collection, matcher
    ):
        root = tmp_path / "gallery"
        with ServiceRunner(_server(GalleryIndex(root), matcher)) as (ph, pp):
            with ServiceClient(ph, pp) as seed:
                seed.enroll(
                    "subject-0",
                    tiny_collection.get(0, FINGER, "D0", 0).template,
                    device="D0",
                )
            with ServiceRunner(_follower_pair(root, matcher)) as (fh, fp):
                with ServiceClient(fh, fp) as ready:
                    ready.wait_until_healthy()
                probe = tiny_collection.get(0, FINGER, "D0", 1).template
                with ServiceClient(
                    ph, pp, followers=[("127.0.0.1", 1), (fh, fp)]
                ) as fleet:
                    reply = fleet.verify("subject-0", probe, device="D0")
                    assert reply["decision"] == "accept"
                    # The live replica (slot 1) answered, not the primary.
                    assert fleet.last_request_id == (
                        fleet.followers[1].last_request_id
                    )


class TestFollowerRebootstrap:
    def test_follower_rebootstraps_past_wal_retention(
        self, tmp_path, tiny_collection, matcher, monkeypatch
    ):
        """A follower that falls past WAL retention heals itself.

        Tiny segments + zero retained generations make the primary
        compact aggressively; a huge poll interval keeps the follower
        idle so every drain happens inside ``/healthz``, which makes
        the fall-behind → rebootstrap → catch-up sequence deterministic.
        """
        monkeypatch.setenv("REPRO_WAL_SEGMENT_BYTES", "512")
        monkeypatch.setenv("REPRO_WAL_KEEP_SEGMENTS", "0")
        monkeypatch.setenv("REPRO_WAL_POLL_MS", "60000")
        root = tmp_path / "gallery"
        template = tiny_collection.get(0, FINGER, "D0", 0).template
        with ServiceRunner(_server(GalleryIndex(root), matcher)) as (ph, pp):
            with ServiceClient(ph, pp) as primary:
                primary.enroll("subject-0", template, device="D0")
                with ServiceRunner(_follower_pair(root, matcher)) as (fh, fp):
                    with ServiceClient(fh, fp) as follower:
                        health = follower.wait_until_healthy()
                        assert health["replication"]["rebootstraps"] == 0
                        # Burst writes on the primary: each enroll seals
                        # a segment and the checkpoint compacts it away,
                        # pulling retention out from under the idle
                        # follower's cursor.
                        bulk = tiny_collection.get(1, FINGER, "D0", 0).template
                        for index in range(10):
                            primary.enroll(
                                f"bulk-{index}", bulk, device="D0"
                            )
                        replication = follower.healthz()["replication"]
                        assert replication["rebootstraps"] == 1
                        assert replication["lag_records"] == 0
                        assert replication["applied_lsn"] == 11
                        assert "error" not in replication
                        # The rebootstrapped replica serves the writes
                        # it never saw stream past.
                        probe = tiny_collection.get(1, FINGER, "D0", 1).template
                        assert follower.verify(
                            "bulk-9", probe, device="D0"
                        )["decision"] == "accept"
                        families = parse_exposition(follower.metrics())
                        assert sample_value(
                            families,
                            "repro_replication_rebootstraps_total",
                            {},
                        ) == 1
                        assert sample_value(
                            families, "repro_replication_broken", {}
                        ) == 0
