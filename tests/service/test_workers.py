"""Sharded serving: worker pool parity, supervision, and teardown.

The acceptance property for the whole subsystem is *bit-identity*: a
server with ``workers=2`` must answer ``/verify`` and ``/identify``
(both modes) byte-for-byte like the single-process control arm — under
clean runs AND under injected worker crashes/stalls.  The satellites
ride along: shard assignment determinism, /dev/shm teardown, the
``workers`` healthz block, and the ``repro_worker_*`` metric families.
"""

import copy
import json
from multiprocessing import shared_memory

import pytest

from repro.service import (
    BatchingConfig,
    GalleryIndex,
    ServiceClient,
    ServiceRunner,
    VerificationServer,
    parse_exposition,
    sample_value,
    shard_of,
)

FINGER = "right_index"
#: Subjects enrolled on D0; a subset re-enrolled on D1 for cross-device.
D0_SUBJECTS = (0, 1, 2, 3, 4, 5)
D1_SUBJECTS = (0, 1, 2)


def _server(gallery, matcher, **kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("batching", BatchingConfig())
    return VerificationServer(gallery, matcher=matcher, **kwargs)


def _enroll_all(client, tiny_collection):
    for sid in D0_SUBJECTS:
        client.enroll(
            f"subject-{sid}",
            tiny_collection.get(sid, FINGER, "D0", 0).template,
            device="D0",
        )
    for sid in D1_SUBJECTS:
        client.enroll(
            f"subject-{sid}",
            tiny_collection.get(sid, FINGER, "D1", 0).template,
            device="D1",
        )


def _normalize(reply: dict) -> dict:
    """Strip the one wall-clock field; everything else must be identical."""
    reply = copy.deepcopy(reply)
    if "search" in reply:
        reply["search"].pop("prefilter_seconds", None)
    return reply


def _probe_replies(client, tiny_collection) -> list:
    """The comparison battery: both identify modes, scoped and global,
    plus a verify — captured as normalized JSON-stable dicts."""
    probes = [
        tiny_collection.get(1, FINGER, "D0", 1).template,
        tiny_collection.get(4, FINGER, "D1", 1).template,
    ]
    replies = []
    for probe in probes:
        for mode in ("exact", "two_stage"):
            replies.append(_normalize(
                client.identify(probe, device="D0", mode=mode, candidate_k=4)
            ))
            replies.append(_normalize(
                client.identify(probe, device=None, mode=mode, candidate_k=4)
            ))
    replies.append(_normalize(client.verify(
        "subject-2",
        tiny_collection.get(2, FINGER, "D0", 1).template,
        device="D0",
    )))
    return replies


@pytest.fixture()
def gallery_root(tmp_path, tiny_collection, matcher):
    """A persisted gallery directory enrolled via the single-process path."""
    root = tmp_path / "gallery"
    with ServiceRunner(_server(GalleryIndex(root), matcher)) as (host, port):
        with ServiceClient(host, port) as client:
            _enroll_all(client, tiny_collection)
    return root


class TestShardOf:
    def test_deterministic_and_in_range(self):
        for n in (2, 3, 7):
            for identity in ("subject-0", "subject-1", "x", ""):
                first = shard_of(identity, n)
                assert 0 <= first < n
                assert shard_of(identity, n) == first

    def test_identity_only_no_device(self):
        # Cross-device copies of one identity must land on one worker,
        # so the shard function cannot depend on the device.
        assert shard_of("subject-3", 4) == shard_of("subject-3", 4)

    def test_spreads_identities(self):
        owners = {shard_of(f"subject-{i}", 2) for i in range(32)}
        assert owners == {0, 1}


class TestShardedParity:
    def test_bit_identical_to_single_process(
        self, gallery_root, tiny_collection, matcher
    ):
        with ServiceRunner(
            _server(GalleryIndex(gallery_root), matcher)
        ) as (host, port):
            with ServiceClient(host, port) as client:
                control = _probe_replies(client, tiny_collection)

        with ServiceRunner(
            _server(GalleryIndex(gallery_root), matcher, workers=2)
        ) as (host, port):
            with ServiceClient(host, port) as client:
                assert client.healthz()["workers"]["alive"] == 2
                sharded = _probe_replies(client, tiny_collection)

        assert json.dumps(sharded, sort_keys=True) == json.dumps(
            control, sort_keys=True
        )

    def test_enroll_and_delete_propagate_to_workers(
        self, gallery_root, tiny_collection, matcher
    ):
        server = _server(GalleryIndex(gallery_root), matcher, workers=2)
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                # A post-snapshot enrollment must be immediately
                # searchable (the delta log reaches the owning worker
                # before the enroll response returns).
                client.enroll(
                    "subject-7",
                    tiny_collection.get(7, FINGER, "D0", 0).template,
                    device="D0",
                )
                probe = tiny_collection.get(7, FINGER, "D0", 1).template
                reply = client.identify(probe, device="D0", mode="exact")
                assert reply["best"]["identity"] == "subject-7"
                verified = client.verify("subject-7", probe, device="D0")
                assert verified["decision"] == "accept"

                client.delete("subject-7", device="D0")
                gone = client.identify(probe, device="D0", mode="exact")
                assert gone["search"]["gallery_size"] == len(D0_SUBJECTS)
                assert all(
                    c["identity"] != "subject-7" for c in gone["candidates"]
                )


class TestObservability:
    def test_healthz_and_metrics_report_workers(
        self, gallery_root, tiny_collection, matcher
    ):
        server = _server(GalleryIndex(gallery_root), matcher, workers=2)
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                health = client.healthz()
                assert health["workers"] == {
                    "configured": 2, "alive": 2, "degraded": False,
                }

                probe = tiny_collection.get(0, FINGER, "D0", 1).template
                client.identify(probe, device="D0", mode="exact")
                client.identify(probe, device="D0", mode="two_stage")

                families = parse_exposition(client.metrics())
                assert sample_value(
                    families, "repro_worker_pool_size", {"state": "alive"}
                ) == 2.0
                assert sample_value(
                    families, "repro_worker_degraded", {}
                ) == 0.0
                dispatches = sum(
                    sample_value(
                        families,
                        "repro_worker_dispatches_total",
                        {"worker": str(w)},
                    ) or 0.0
                    for w in (0, 1)
                )
                assert dispatches > 0
                shard_sizes = [
                    sample_value(
                        families, "repro_worker_shard_size", {"worker": str(w)}
                    )
                    for w in (0, 1)
                ]
                assert sum(shard_sizes) == len(D0_SUBJECTS) + len(D1_SUBJECTS)

                stats = client.stats()
                assert stats["workers"]["configured"] == 2
                assert stats["workers"]["respawns"] == {}

    def test_single_process_healthz_reports_zero_workers(
        self, gallery_root, matcher
    ):
        with ServiceRunner(
            _server(GalleryIndex(gallery_root), matcher)
        ) as (host, port):
            with ServiceClient(host, port) as client:
                health = client.healthz()
                assert health["workers"]["configured"] == 0
                assert health["workers"]["alive"] == 0


class TestTeardown:
    def test_shm_segment_unlinked_on_stop(self, gallery_root, matcher):
        server = _server(GalleryIndex(gallery_root), matcher, workers=2)
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                client.wait_until_healthy()
                assert server.pool is not None
                name = server.pool._store.handle().name
                # Live while serving...
                block = shared_memory.SharedMemory(name=name)
                block.close()
        # ...and gone after stop: a leaked /dev/shm block would still
        # attach here.
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestChaos:
    """REPRO_FAULTS targeting worker task keys (``serve-w{id}-{op}-*``)."""

    def _chaos_env(self, monkeypatch, tmp_path, spec):
        monkeypatch.setenv("REPRO_FAULTS", spec)
        monkeypatch.setenv("REPRO_FAULTS_DIR", str(tmp_path / "ledger"))

    def test_crashed_worker_respawns_with_identical_results(
        self, gallery_root, tiny_collection, matcher, monkeypatch, tmp_path
    ):
        with ServiceRunner(
            _server(GalleryIndex(gallery_root), matcher)
        ) as (host, port):
            with ServiceClient(host, port) as client:
                control = _probe_replies(client, tiny_collection)

        # Worker 1 exits hard on its first ranked search; the pool must
        # requeue the in-flight fan-out, respawn, and answer bit-identically.
        self._chaos_env(monkeypatch, tmp_path, "crash@serve-w1-rank:1")
        server = _server(GalleryIndex(gallery_root), matcher, workers=2)
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                chaotic = _probe_replies(client, tiny_collection)
                stats = client.stats()
                assert sum(stats["workers"]["respawns"].values()) >= 1
                assert client.healthz()["workers"]["alive"] == 2

        assert json.dumps(chaotic, sort_keys=True) == json.dumps(
            control, sort_keys=True
        )

    def test_stalled_worker_times_out_and_respawns(
        self, gallery_root, tiny_collection, matcher, monkeypatch, tmp_path
    ):
        probe = tiny_collection.get(1, FINGER, "D0", 1).template
        with ServiceRunner(
            _server(GalleryIndex(gallery_root), matcher)
        ) as (host, port):
            with ServiceClient(host, port) as client:
                control = _normalize(
                    client.verify("subject-1", probe, device="D0")
                )

        # The worker owning subject-1 stalls mid-/verify far past the
        # RPC deadline; the parent must declare it broken, respawn, and
        # retry the job.
        owner = shard_of("subject-1", 2)
        self._chaos_env(
            monkeypatch, tmp_path, f"hang@serve-w{owner}-score:1:30"
        )
        monkeypatch.setenv("REPRO_SERVE_WORKER_TIMEOUT_S", "1.0")
        server = _server(GalleryIndex(gallery_root), matcher, workers=2)
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                stalled = _normalize(
                    client.verify("subject-1", probe, device="D0")
                )
                respawns = client.stats()["workers"]["respawns"]
                assert sum(respawns.values()) >= 1

        assert json.dumps(stalled, sort_keys=True) == json.dumps(
            control, sort_keys=True
        )

    def test_repeated_breakage_degrades_to_in_process(
        self, gallery_root, tiny_collection, matcher, monkeypatch, tmp_path
    ):
        # Every ranked search on worker 0 crashes and the respawn budget
        # is one: the pool must give up, not flap — and the server keeps
        # answering through the in-process fallback.
        self._chaos_env(monkeypatch, tmp_path, "crash@serve-w0-rank:9")
        monkeypatch.setenv("REPRO_SERVE_WORKER_RESPAWNS", "1")
        server = _server(GalleryIndex(gallery_root), matcher, workers=2)
        probe = tiny_collection.get(1, FINGER, "D0", 1).template
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                reply = client.identify(probe, device="D0", mode="exact")
                assert reply["best"]["identity"] == "subject-1"
                health = client.healthz()
                assert health["workers"]["degraded"] is True
                assert health["workers"]["alive"] == 0
                # Still serving: the next request takes the fallback
                # path directly.
                again = client.identify(probe, device="D0", mode="exact")
                assert again["best"]["identity"] == "subject-1"
