"""End-to-end HTTP round trips against a live VerificationServer.

The acceptance scenario for the serving layer, over a real socket:
enroll → genuine accept / impostor reject → identify rank-1 → restart →
persistence.  ``port=0`` keeps every server on its own ephemeral port.
"""

import base64
import concurrent.futures
import json
import socket
import time

import pytest

from repro.io.incits378 import encode as encode_378
from repro.matcher.types import Minutia
from repro.service import (
    BatchingConfig,
    EXPOSITION_CONTENT_TYPE,
    GalleryIndex,
    ServerStartupError,
    ServiceClient,
    ServiceClientError,
    ServiceRunner,
    VerificationServer,
    encode_template,
    parse_exposition,
    sample_value,
)

from .test_batching import GatedMatcher

FINGER = "right_index"
SUBJECTS = (0, 1, 2)

#: Byte offset of the first minutia's quality in an INCITS 378 record
#: (28-byte record header, 4-byte view header, then x, y, angle, quality).
_FIRST_MINUTIA_QUALITY = 28 + 4 + 5


def _wait_for_queue(server, jobs):
    deadline = time.monotonic() + 10
    while server.batcher.queue_depth < jobs:
        assert time.monotonic() < deadline, "jobs never queued"
        time.sleep(0.001)


def _refused_behind_a_backlog(server, gated, client, probe):
    """``client``'s identify error while one held and one queued verify wait.

    With ``queue_depth=1`` the queued verify fills the queue, so any
    multi-pair request is refused rather than admitted alone.
    """
    host, port = client._host, client._port

    def one_verify(_):
        with ServiceClient(host, port) as other:
            return other.verify("subject-0", probe, device="D0")

    gated.release.clear()
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        try:
            held = pool.submit(one_verify, 0)
            assert gated.entered.wait(10)
            queued = pool.submit(one_verify, 1)
            _wait_for_queue(server, 1)
            with pytest.raises(ServiceClientError) as excinfo:
                client.identify(probe, device="D0")
        finally:
            gated.release.set()
        assert held.result()["decision"] == "accept"
        assert queued.result()["decision"] == "accept"
    return excinfo.value


def _server(gallery, matcher, **kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("batching", BatchingConfig())
    return VerificationServer(gallery, matcher=matcher, **kwargs)


@pytest.fixture()
def live(tmp_path, tiny_collection, matcher):
    """A running server enrolled with three subjects, plus its client."""
    gallery = GalleryIndex(tmp_path / "gallery")
    with ServiceRunner(_server(gallery, matcher)) as (host, port):
        with ServiceClient(host, port) as client:
            for sid in SUBJECTS:
                client.enroll(
                    f"subject-{sid}",
                    tiny_collection.get(sid, FINGER, "D0", 0).template,
                    device="D0",
                )
            yield client


class TestRoundTrip:
    def test_full_lifecycle_with_restart(self, tmp_path, tiny_collection, matcher):
        root = tmp_path / "gallery"

        with ServiceRunner(_server(GalleryIndex(root), matcher)) as (host, port):
            with ServiceClient(host, port) as client:
                assert client.wait_until_healthy()["status"] == "ok"
                for sid in SUBJECTS:
                    reply = client.enroll(
                        f"subject-{sid}",
                        tiny_collection.get(sid, FINGER, "D0", 0).template,
                        device="D0",
                    )
                    assert 1 <= reply["nfiq_level"] <= 4

                genuine = client.verify(
                    "subject-0",
                    tiny_collection.get(0, FINGER, "D0", 1).template,
                    device="D0",
                )
                assert genuine["decision"] == "accept"
                assert genuine["score"] >= genuine["threshold"]

                impostor = client.verify(
                    "subject-0",
                    tiny_collection.get(1, FINGER, "D0", 1).template,
                    device="D0",
                )
                assert impostor["decision"] == "reject"

                identified = client.identify(
                    tiny_collection.get(1, FINGER, "D0", 1).template,
                    device="D0",
                )
                assert identified["search"]["gallery_size"] == len(SUBJECTS)
                assert identified["best"]["identity"] == "subject-1"
                assert identified["best"]["decision"] == "accept"
                assert identified["candidates"][0]["identity"] == "subject-1"

        # A fresh server over the same gallery directory remembers.
        with ServiceRunner(_server(GalleryIndex(root), matcher)) as (host, port):
            with ServiceClient(host, port) as client:
                assert client.healthz()["enrolled"] == len(SUBJECTS)
                survived = client.verify(
                    "subject-2",
                    tiny_collection.get(2, FINGER, "D0", 1).template,
                    device="D0",
                )
                assert survived["decision"] == "accept"

    def test_cross_device_verification_still_works(self, live, tiny_collection):
        # The interoperable case the paper studies: probe from another
        # optical device against the D0 enrollment.
        reply = live.verify(
            "subject-0",
            tiny_collection.get(0, FINGER, "D1", 1).template,
            device="D0",
        )
        assert reply["decision"] == "accept"

    def test_delete_then_verify_404s(self, live, tiny_collection):
        live.delete("subject-2", device="D0")
        with pytest.raises(ServiceClientError) as excinfo:
            live.verify(
                "subject-2",
                tiny_collection.get(2, FINGER, "D0", 1).template,
                device="D0",
            )
        assert excinfo.value.status == 404
        assert not excinfo.value.retryable


class TestStatusCodes:
    def test_unknown_identity_404(self, live, tiny_collection):
        with pytest.raises(ServiceClientError) as excinfo:
            live.verify(
                "ghost",
                tiny_collection.get(0, FINGER, "D0", 1).template,
                device="D0",
            )
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "UnknownIdentityError"
        assert excinfo.value.code == "unknown_identity"

    def test_malformed_template_400(self, live):
        with pytest.raises(ServiceClientError) as excinfo:
            live._request(
                "POST",
                "/verify",
                {"identity": "subject-0", "device": "D0", "template": "!!!"},
            )
        assert excinfo.value.status == 400

    def test_truncated_template_400(self, live):
        garbage = base64.b64encode(b"FMR\x00 not a record").decode("ascii")
        with pytest.raises(ServiceClientError) as excinfo:
            live._request(
                "POST",
                "/verify",
                {"identity": "subject-0", "device": "D0", "template": garbage},
            )
        assert excinfo.value.status == 400

    def test_missing_identity_400(self, live, tiny_collection):
        template = tiny_collection.get(0, FINGER, "D0", 1).template
        with pytest.raises(ServiceClientError) as excinfo:
            live._request("POST", "/verify", {"template": encode_template(template)})
        assert excinfo.value.status == 400

    def test_bad_threshold_type_400(self, live, tiny_collection):
        template = tiny_collection.get(0, FINGER, "D0", 1).template
        with pytest.raises(ServiceClientError) as excinfo:
            live._request(
                "POST",
                "/verify",
                {
                    "identity": "subject-0",
                    "device": "D0",
                    "template": encode_template(template),
                    "threshold": True,
                },
            )
        assert excinfo.value.status == 400

    def test_wrong_method_405(self, live):
        with pytest.raises(ServiceClientError) as excinfo:
            live._request("GET", "/verify")
        assert excinfo.value.status == 405

    def test_unknown_route_404(self, live):
        with pytest.raises(ServiceClientError) as excinfo:
            live._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_port_in_use_raises_startup_error(self, tmp_path, matcher):
        gallery = GalleryIndex(tmp_path / "gallery")
        with ServiceRunner(_server(gallery, matcher)) as (host, port):
            second = ServiceRunner(_server(gallery, matcher, port=port))
            with pytest.raises(ServerStartupError):
                second.start()

    def test_malformed_request_line_gets_a_400_response(self, live):
        host, port = live._host, live._port
        with socket.create_connection((host, port), timeout=5) as raw:
            raw.sendall(b"NONSENSE\r\n\r\n")
            reply = raw.recv(4096).decode("latin-1")
        assert reply.startswith("HTTP/1.1 400 ")
        assert "X-Request-ID:" in reply


class TestOverload:
    def test_deterministic_503_with_retry_after(
        self, tmp_path, tiny_collection, matcher
    ):
        gallery = GalleryIndex(tmp_path / "gallery")
        gated = GatedMatcher(matcher)
        server = _server(
            gallery, gated, batching=BatchingConfig(queue_depth=1)
        )
        probe = tiny_collection.get(0, FINGER, "D0", 1).template
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                for sid in SUBJECTS:
                    client.enroll(
                        f"subject-{sid}",
                        tiny_collection.get(sid, FINGER, "D0", 0).template,
                        device="D0",
                    )
                # 3 candidates -> 3 pair jobs > queue_depth=1 while a
                # job is queued: refused.
                error = _refused_behind_a_backlog(server, gated, client, probe)
                assert error.status == 503
                assert error.retryable
                assert client.last_headers.get("retry-after") == "1"
                assert client.last_headers.get("x-request-id")
                assert client.stats()["overloads"] >= 1
                # Once the backlog drains, the same request is admitted.
                hits = client.identify(probe, device="D0")
                assert hits["candidates"][0]["identity"] == "subject-0"

    def test_identify_larger_than_queue_depth_is_admitted_when_idle(
        self, tmp_path, tiny_collection, matcher
    ):
        # 300 entries > the default queue_depth of 256: an exact search
        # must still run on an idle server instead of a 503 no retry
        # could ever fix.
        gallery = GalleryIndex(tmp_path / "gallery")
        for sid in range(10):
            for device in ("D0", "D1"):
                template = tiny_collection.get(sid, FINGER, device, 0).template
                for copy in range(15):
                    gallery.enroll(f"subject-{sid}-{copy}", template, device)
        assert BatchingConfig().queue_depth < 300
        with ServiceRunner(_server(gallery, matcher)) as (host, port):
            with ServiceClient(host, port) as client:
                hits = client.identify(
                    tiny_collection.get(0, FINGER, "D0", 1).template,
                    device=None, mode="exact",
                )
                stats = client.stats()
        assert hits["search"]["gallery_size"] == 300
        assert hits["search"]["candidates_scored"] == 300
        assert hits["candidates"][0]["identity"].startswith("subject-0-")
        assert stats["overloads"] == 0


class TestMetricsEndpoint:
    def test_scrape_parses_strictly(self, live, tiny_collection):
        live.verify(
            "subject-0",
            tiny_collection.get(0, FINGER, "D0", 1).template,
            device="D0",
        )
        text = live.metrics()
        assert live.last_headers["content-type"] == EXPOSITION_CONTENT_TYPE
        families = parse_exposition(text)
        assert sample_value(
            families, "repro_requests_total", {"endpoint": "verify"}
        ) == 1
        assert sample_value(
            families, "repro_requests_total", {"endpoint": "enroll"}
        ) == len(SUBJECTS)
        assert sample_value(
            families, "repro_gallery_enrolled", {"device": "D0"}
        ) == len(SUBJECTS)
        assert sample_value(families, "repro_batches_total") >= 1

    def test_scraping_metrics_does_not_pollute_latency(self, live):
        for _ in range(5):
            live.metrics()
            live.healthz()
            live.stats()
        stats = live.stats()
        # Counted...
        assert stats["requests"]["metrics"] == 5
        # ...but never timed: the windows only hold real traffic.
        assert "metrics" not in stats["latency"]
        assert "healthz" not in stats["latency"]
        assert "stats" not in stats["latency"]

    def test_metrics_is_get_only(self, live):
        with pytest.raises(ServiceClientError) as excinfo:
            live._request("POST", "/metrics")
        assert excinfo.value.status == 405


class TestQualityGate:
    def test_low_quality_enrollment_409(self, live):
        from tests.service.test_gallery import _low_quality_template

        with pytest.raises(ServiceClientError) as excinfo:
            live.enroll("mushy", _low_quality_template(), device="D0")
        assert excinfo.value.status == 409
        assert excinfo.value.kind == "EnrollmentRejected"
        assert excinfo.value.code == "quality_rejected"
        stats = live.stats()
        assert stats["enroll_rejected"] == 1


class TestStatsEndpoint:
    def test_stats_payload_shape(self, live, tiny_collection):
        live.verify(
            "subject-0",
            tiny_collection.get(0, FINGER, "D0", 1).template,
            device="D0",
        )
        stats = live.stats()
        assert stats["requests"]["enroll"] == len(SUBJECTS)
        assert stats["requests"]["verify"] == 1
        assert stats["decisions"]["accepted"] == 1
        assert stats["gallery"]["enrolled"] == len(SUBJECTS)
        assert stats["batching"]["config"]["enabled"] is True
        assert stats["batching"]["jobs"] >= 1
        assert stats["threshold"] == 7.5
        assert "verify" in stats["latency"]
        assert json.dumps(stats)  # the payload must stay JSON-able

    def test_identify_fans_out_into_one_batch(self, live, tiny_collection):
        live.identify(
            tiny_collection.get(0, FINGER, "D0", 1).template, device="D0"
        )
        stats = live.stats()
        # One identify = one job per enrolled candidate, coalesced.
        assert stats["batching"]["max_size"] >= len(SUBJECTS)


class TestConcurrency:
    def test_concurrent_clients_coalesce_batches(
        self, tmp_path, tiny_collection, matcher
    ):
        gallery = GalleryIndex(tmp_path / "gallery")
        gated = GatedMatcher(matcher)
        server = _server(gallery, gated)
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as setup:
                for sid in SUBJECTS:
                    setup.enroll(
                        f"subject-{sid}",
                        tiny_collection.get(sid, FINGER, "D0", 0).template,
                        device="D0",
                    )

            def one_verify(sid):
                with ServiceClient(host, port) as client:
                    return client.verify(
                        f"subject-{sid % len(SUBJECTS)}",
                        tiny_collection.get(
                            sid % len(SUBJECTS), FINGER, "D0", 1
                        ).template,
                        device="D0",
                    )

            # Hold the first batch on the matcher: the other clients'
            # verifies queue behind it and must go out as one dispatch
            # once it is released.
            gated.release.clear()
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                try:
                    replies = pool.map(one_verify, range(16))
                    assert gated.entered.wait(10)
                    _wait_for_queue(server, 8 - gated.held)
                finally:
                    gated.release.set()
                replies = list(replies)
            assert all(r["decision"] == "accept" for r in replies)

            with ServiceClient(host, port) as client:
                stats = client.stats()
        assert stats["requests"]["verify"] == 16
        # Concurrent single-pair requests must have shared batches.
        assert stats["batching"]["max_size"] >= 4
        assert stats["batching"]["batches"] < 16 + len(SUBJECTS)


class TestVersionedApi:
    """Satellite (a): the /v1 surface, deprecation headers, envelopes."""

    def test_client_targets_v1_by_default(self, live):
        assert live.api_base == "/v1"
        assert live.healthz()["status"] == "ok"
        assert "deprecation" not in live.last_headers

    def test_legacy_paths_answer_with_deprecation_header(self, live):
        legacy = ServiceClient(live._host, live._port, api_base="")
        with legacy:
            assert legacy.healthz()["status"] == "ok"
            assert legacy.last_headers.get("deprecation") == "true"
            legacy.stats()
            assert legacy.last_headers.get("deprecation") == "true"

    def test_v1_and_legacy_hit_the_same_router(self, live, tiny_collection):
        template = tiny_collection.get(0, FINGER, "D0", 1).template
        v1 = live.verify("subject-0", template, device="D0")
        legacy = ServiceClient(live._host, live._port, api_base="")
        with legacy:
            old = legacy.verify("subject-0", template, device="D0")
        assert v1["score"] == old["score"]
        assert v1["decision"] == old["decision"]

    def test_unknown_route_is_not_marked_deprecated(self, live):
        with pytest.raises(ServiceClientError):
            live._request("GET", "/nope")
        assert "deprecation" not in live.last_headers

    def test_bare_v1_404s_without_deprecation(self, live):
        # "/v1" normalizes to "/", which is not a route — but it is
        # versioned, so the error must not claim deprecation.
        with pytest.raises(ServiceClientError) as excinfo:
            live._request("GET", "/v1")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"
        assert "deprecation" not in live.last_headers


class TestErrorEnvelope:
    """Satellite (a): every failure is {"error": {code, message, request_id}}."""

    @staticmethod
    def _assert_envelope(exc, status, code):
        assert exc.status == status
        envelope = exc.payload["error"]
        assert envelope["code"] == code == exc.code
        assert isinstance(envelope["message"], str) and envelope["message"]
        assert envelope["request_id"] == exc.request_id
        assert exc.request_id  # always stamped

    def test_404_unknown_route(self, live):
        with pytest.raises(ServiceClientError) as excinfo:
            live._request("GET", "/v1/nope")
        self._assert_envelope(excinfo.value, 404, "not_found")

    def test_405_wrong_method(self, live):
        with pytest.raises(ServiceClientError) as excinfo:
            live._request("GET", "/v1/verify")
        self._assert_envelope(excinfo.value, 405, "method_not_allowed")

    def test_400_unparsable_json(self, live):
        connection = live._connect()
        connection.request(
            "POST", "/v1/verify", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        envelope = payload["error"]
        assert envelope["code"] == "bad_request"
        assert envelope["request_id"]

    def test_400_invalid_template(self, live):
        with pytest.raises(ServiceClientError) as excinfo:
            live._request(
                "POST",
                "/v1/verify",
                {"identity": "subject-0", "device": "D0", "template": "!!!"},
            )
        self._assert_envelope(excinfo.value, 400, "invalid_template")
        assert excinfo.value.kind == "TemplateFormatError"

    @pytest.mark.parametrize("endpoint", ["verify", "identify", "enroll"])
    def test_400_minutia_quality_over_100(self, live, tiny_collection, endpoint):
        # A well-formed record whose first minutia's quality byte is 101:
        # the codec refuses it, so the server answers 400, not 500.
        record = bytearray(
            encode_378(tiny_collection.get(0, FINGER, "D0", 1).template)
        )
        record[_FIRST_MINUTIA_QUALITY] = 101
        with pytest.raises(ServiceClientError) as excinfo:
            live._request(
                "POST",
                f"/v1/{endpoint}",
                {
                    "identity": "subject-9",
                    "device": "D0",
                    "template": base64.b64encode(bytes(record)).decode("ascii"),
                },
            )
        self._assert_envelope(excinfo.value, 400, "invalid_template")
        assert excinfo.value.kind == "TemplateFormatError"

    def test_413_oversized_body(self, live):
        connection = live._connect()
        connection.request(
            "POST", "/v1/verify", body=b"x" * ((1 << 20) + 1),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 413
        assert payload["error"]["code"] == "payload_too_large"

    def test_503_overload_envelope_is_retryable(
        self, tmp_path, tiny_collection, matcher
    ):
        gallery = GalleryIndex(tmp_path / "gallery")
        gated = GatedMatcher(matcher)
        server = _server(
            gallery, gated, batching=BatchingConfig(queue_depth=1)
        )
        probe = tiny_collection.get(0, FINGER, "D0", 1).template
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                for sid in SUBJECTS:
                    client.enroll(
                        f"subject-{sid}",
                        tiny_collection.get(sid, FINGER, "D0", 0).template,
                        device="D0",
                    )
                error = _refused_behind_a_backlog(server, gated, client, probe)
        self._assert_envelope(error, 503, "overloaded")
        assert error.retryable

    def test_legacy_errors_carry_the_same_envelope(self, live):
        legacy = ServiceClient(live._host, live._port, api_base="")
        with legacy:
            with pytest.raises(ServiceClientError) as excinfo:
                legacy._request("GET", "/verify")
        self._assert_envelope(excinfo.value, 405, "method_not_allowed")
        assert legacy.last_headers.get("deprecation") == "true"


class TestTwoStageIdentify:
    """Tentpole at the HTTP layer: modes, search block, candidate schema."""

    def test_exact_mode_response_schema(self, live, tiny_collection):
        reply = live.identify(
            tiny_collection.get(1, FINGER, "D0", 1).template, device="D0"
        )
        search = reply["search"]
        assert search["mode"] == "exact"
        assert search["gallery_size"] == len(SUBJECTS)
        assert search["candidates_scored"] == len(SUBJECTS)
        assert search["candidate_k"] is None
        assert search["prefilter_seconds"] == 0.0
        top = reply["candidates"][0]
        assert top["identity"] == "subject-1"
        assert top["device"] == "D0"
        assert top["stage"] == "exhaustive"
        assert top["prefilter_rank"] is None
        assert isinstance(top["score"], float)

    def test_two_stage_mode_response_schema(self, live, tiny_collection):
        reply = live.identify(
            tiny_collection.get(1, FINGER, "D0", 1).template,
            device="D0",
            mode="two_stage",
            candidate_k=2,
        )
        search = reply["search"]
        assert search["mode"] == "two_stage"
        assert search["gallery_size"] == len(SUBJECTS)
        assert search["candidates_scored"] == 2
        assert search["candidate_k"] == 2
        assert search["prefilter_seconds"] > 0.0
        for candidate in reply["candidates"]:
            assert candidate["stage"] == "rescored"
            assert 1 <= candidate["prefilter_rank"] <= 2

    def test_two_stage_agrees_with_exact_top1(self, live, tiny_collection):
        for sid in SUBJECTS:
            probe = tiny_collection.get(sid, FINGER, "D0", 1).template
            exact = live.identify(probe, device="D0", mode="exact")
            fast = live.identify(probe, device="D0", mode="two_stage")
            assert (
                exact["candidates"][0]["identity"]
                == fast["candidates"][0]["identity"]
                == f"subject-{sid}"
            )
            assert exact["candidates"][0]["score"] == pytest.approx(
                fast["candidates"][0]["score"]
            )

    def test_invalid_mode_400(self, live, tiny_collection):
        with pytest.raises(ServiceClientError) as excinfo:
            live.identify(
                tiny_collection.get(0, FINGER, "D0", 1).template,
                device="D0",
                mode="bogus",
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_request"

    def test_invalid_candidate_k_400(self, live, tiny_collection):
        with pytest.raises(ServiceClientError) as excinfo:
            live.identify(
                tiny_collection.get(0, FINGER, "D0", 1).template,
                device="D0",
                mode="two_stage",
                candidate_k=0,
            )
        assert excinfo.value.status == 400

    def test_server_default_mode_knob(self, tmp_path, tiny_collection, matcher):
        gallery = GalleryIndex(tmp_path / "gallery")
        server = _server(gallery, matcher, identify_mode="two_stage", candidate_k=2)
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                for sid in SUBJECTS:
                    client.enroll(
                        f"subject-{sid}",
                        tiny_collection.get(sid, FINGER, "D0", 0).template,
                        device="D0",
                    )
                reply = client.identify(
                    tiny_collection.get(0, FINGER, "D0", 1).template, device="D0"
                )
                assert reply["search"]["mode"] == "two_stage"
                assert reply["search"]["candidates_scored"] == 2
                stats = client.stats()
                assert stats["identify"]["default_mode"] == "two_stage"
                assert stats["identify"]["candidate_k"] == 2

    def test_identify_telemetry_reaches_metrics(self, live, tiny_collection):
        probe = tiny_collection.get(0, FINGER, "D0", 1).template
        live.identify(probe, device="D0", mode="exact")
        live.identify(probe, device="D0", mode="two_stage")
        families = parse_exposition(live.metrics())
        assert sample_value(
            families, "repro_identify_searches_total", {"mode": "exact"}
        ) >= 1
        assert sample_value(
            families, "repro_identify_searches_total", {"mode": "two_stage"}
        ) >= 1
        assert sample_value(families, "repro_identify_candidates_total") >= 1
        assert sample_value(
            families, "repro_identify_prefilter_seconds_count", {}
        ) >= 1


class TestArrayTemplates:
    def test_reload_and_two_stage_identify_build_no_minutia(
        self, tmp_path, tiny_collection, matcher, monkeypatch
    ):
        # Templates are held as columns end to end: reloading a gallery
        # and serving a two-stage identify construct no Minutia at all.
        root = tmp_path / "gallery"
        with GalleryIndex(root) as gallery:
            for sid in SUBJECTS:
                for device in ("D0", "D1"):
                    gallery.enroll(
                        f"subject-{sid}",
                        tiny_collection.get(sid, FINGER, device, 0).template,
                        device=device,
                    )
        probe = tiny_collection.get(0, FINGER, "D0", 1).template
        built = []
        real_init = Minutia.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Minutia, "__init__", counting_init)
        server = _server(GalleryIndex(root), matcher, identify_mode="two_stage")
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                reply = client.identify(probe, device=None, candidate_k=4)
        assert reply["search"]["mode"] == "two_stage"
        assert reply["candidates"][0]["identity"] == "subject-0"
        assert built == []
        # The counter itself works.
        assert len(probe.minutiae) == len(built) > 0


class TestRetryAfterBackoff:
    """Satellite (c): the client honors Retry-After on 503s."""

    def test_retry_delay_reads_the_header(self, live):
        live.last_headers = {"retry-after": "2.5"}
        assert live.retry_delay() == 2.5
        live.last_headers = {"retry-after": "-3"}
        assert live.retry_delay() == 0.0
        live.last_headers = {"retry-after": "soon"}
        assert live.retry_delay() == 0.05
        live.last_headers = {}
        assert live.retry_delay(default=0.2) == 0.2

    def test_wait_until_healthy_backs_off_by_retry_after(self, monkeypatch, live):
        naps = []
        calls = {"n": 0}

        def fake_healthz():
            calls["n"] += 1
            if calls["n"] == 1:
                live.last_headers = {"retry-after": "0.123"}
                raise ServiceClientError(503, {"error": {"message": "full"}})
            return {"status": "ok"}

        monkeypatch.setattr(live, "healthz", fake_healthz)
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: naps.append(s)
        )
        assert live.wait_until_healthy(timeout_s=5.0)["status"] == "ok"
        assert naps and naps[0] == pytest.approx(0.123, abs=1e-6)
