"""End-to-end observability acceptance: trace ids, reqlog, /metrics join.

The PR's acceptance criteria, over a real socket: a request through
``ServiceClient`` yields an ``X-Request-ID`` echoed end-to-end, a JSONL
reqlog line whose ``batch_id`` matches a batch recorded in ``/metrics``,
and a ``/metrics`` payload accepted by the strict exposition parser.
"""

import pytest

from repro.service import (
    BatchingConfig,
    GalleryIndex,
    RequestLog,
    ServiceClient,
    ServiceClientError,
    ServiceRunner,
    VerificationServer,
    iter_reqlog,
    parse_exposition,
    sample_value,
)

FINGER = "right_index"
SUBJECTS = (0, 1, 2)


def _settle(client):
    """Force the previous request's reqlog line to be on disk.

    The audit line is written after the response goes out, so the very
    last response can race its own log line; handlers on one keep-alive
    connection are sequential, so any follow-up round trip is a barrier
    for everything before it.
    """
    client.healthz()


@pytest.fixture()
def observed(tmp_path, tiny_collection, matcher):
    """A traced server with a reqlog, enrolled, plus its client and log path."""
    reqlog_path = tmp_path / "reqlog.jsonl"
    server = VerificationServer(
        GalleryIndex(tmp_path / "gallery"),
        matcher=matcher,
        port=0,
        batching=BatchingConfig(),
        reqlog=RequestLog(reqlog_path),
    )
    with ServiceRunner(server) as (host, port):
        with ServiceClient(host, port) as client:
            for sid in SUBJECTS:
                client.enroll(
                    f"subject-{sid}",
                    tiny_collection.get(sid, FINGER, "D0", 0).template,
                    device="D0",
                )
            yield client, reqlog_path


class TestRequestIdEcho:
    def test_client_id_echoed_end_to_end(self, observed, tiny_collection):
        client, _ = observed
        client.verify(
            "subject-0",
            tiny_collection.get(0, FINGER, "D0", 1).template,
            device="D0",
        )
        assert client.last_request_id
        assert client.last_headers["x-request-id"] == client.last_request_id

    def test_echoed_on_error_responses_too(self, observed):
        client, _ = observed
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        assert client.last_headers.get("x-request-id")

    def test_unsafe_header_value_is_replaced(self, observed):
        client, _ = observed
        connection = client._connect()
        connection.request(
            "GET", "/healthz", headers={"X-Request-ID": "bad value!{}"}
        )
        response = connection.getresponse()
        response.read()
        echoed = dict(response.getheaders()).get("X-Request-ID")
        assert echoed and echoed != "bad value!{}"


class TestReqlogMetricsJoin:
    def test_reqlog_batch_ids_match_metrics(self, observed, tiny_collection):
        client, reqlog_path = observed
        client.verify(
            "subject-0",
            tiny_collection.get(0, FINGER, "D0", 1).template,
            device="D0",
        )
        verify_id = client.last_request_id
        client.identify(
            tiny_collection.get(1, FINGER, "D0", 1).template, device="D0"
        )
        identify_id = client.last_request_id

        families = parse_exposition(client.metrics())  # strict parse
        last_batch = sample_value(families, "repro_batch_last_id")
        assert last_batch and last_batch >= 1

        records = {r["request_id"]: r for r in iter_reqlog(reqlog_path)}
        for rid in (verify_id, identify_id):
            record = records[rid]
            assert record["batch_ids"], f"{record['endpoint']} rode no batch"
            assert all(1 <= b <= last_batch for b in record["batch_ids"])
            assert record["status"] == 200
            assert record["device"] == "D0"
            assert record["gallery_size"] == len(SUBJECTS)

    def test_reqlog_has_one_line_per_request(self, observed, tiny_collection):
        client, reqlog_path = observed
        sent = []
        for _ in range(3):
            client.verify(
                "subject-0",
                tiny_collection.get(0, FINGER, "D0", 1).template,
                device="D0",
            )
            sent.append(client.last_request_id)
        _settle(client)
        logged = [r["request_id"] for r in iter_reqlog(reqlog_path)]
        assert len(logged) == len(set(logged))
        for rid in sent:
            assert logged.count(rid) == 1

    def test_phase_timeline_covers_the_lifecycle(
        self, observed, tiny_collection
    ):
        client, reqlog_path = observed
        client.verify(
            "subject-0",
            tiny_collection.get(0, FINGER, "D0", 1).template,
            device="D0",
        )
        rid = client.last_request_id
        _settle(client)
        record = {
            r["request_id"]: r for r in iter_reqlog(reqlog_path)
        }[rid]
        names = [p["name"] for p in record["phases"]]
        assert names == [
            "parse", "gallery", "queue_wait", "batch_wait", "match", "respond",
        ]
        assert all(p["ms"] >= 0.0 for p in record["phases"])
        assert record["match_ms"] > 0.0

    def test_probe_requests_are_logged_without_batches(self, observed):
        client, reqlog_path = observed
        client.healthz()
        rid = client.last_request_id
        _settle(client)
        record = {
            r["request_id"]: r for r in iter_reqlog(reqlog_path)
        }[rid]
        assert record["endpoint"] == "healthz"
        assert record["batch_ids"] == []


class TestTracingDisabled:
    def test_tracing_off_still_echoes_ids_and_logs(
        self, tmp_path, tiny_collection, matcher
    ):
        reqlog_path = tmp_path / "req.jsonl"
        server = VerificationServer(
            GalleryIndex(tmp_path / "gallery"),
            matcher=matcher,
            port=0,
            batching=BatchingConfig(),
            reqlog=RequestLog(reqlog_path),
            tracing=False,
        )
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                client.enroll(
                    "subject-0",
                    tiny_collection.get(0, FINGER, "D0", 0).template,
                    device="D0",
                )
                client.verify(
                    "subject-0",
                    tiny_collection.get(0, FINGER, "D0", 1).template,
                    device="D0",
                )
                rid = client.last_request_id
                assert client.last_headers["x-request-id"] == rid
        records = {r["request_id"]: r for r in iter_reqlog(reqlog_path)}
        assert rid in records
        assert "phases" not in records[rid]  # no trace, no timeline

    def test_env_flag_disables_tracing(self, tmp_path, matcher, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_TRACING", "0")
        server = VerificationServer(
            GalleryIndex(tmp_path / "gallery"), matcher=matcher, port=0
        )
        assert server.tracing is False

    def test_tracing_defaults_on(self, tmp_path, matcher, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_TRACING", raising=False)
        server = VerificationServer(
            GalleryIndex(tmp_path / "gallery"), matcher=matcher, port=0
        )
        assert server.tracing is True


class TestSlowRequests:
    def test_zero_threshold_flags_everything(
        self, tmp_path, tiny_collection, matcher
    ):
        reqlog_path = tmp_path / "req.jsonl"
        server = VerificationServer(
            GalleryIndex(tmp_path / "gallery"),
            matcher=matcher,
            port=0,
            batching=BatchingConfig(),
            reqlog=RequestLog(reqlog_path),
            slow_ms=0.0,
        )
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                client.enroll(
                    "subject-0",
                    tiny_collection.get(0, FINGER, "D0", 0).template,
                    device="D0",
                )
                stats = client.stats()
        assert stats["slow_requests"] >= 1
        records = list(iter_reqlog(reqlog_path))
        assert all(r["slow"] for r in records if r["endpoint"] == "enroll")

    def test_high_threshold_flags_nothing(self, observed, tiny_collection):
        client, reqlog_path = observed
        client.verify(
            "subject-0",
            tiny_collection.get(0, FINGER, "D0", 1).template,
            device="D0",
        )
        assert client.stats()["slow_requests"] == 0
        _settle(client)
        assert not any(r["slow"] for r in iter_reqlog(reqlog_path))
