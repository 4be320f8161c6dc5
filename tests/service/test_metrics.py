"""Prometheus exposition: renderer output, strict parser, live scrape."""

import math

import pytest

from repro.runtime.telemetry import enable_telemetry, get_recorder, set_recorder
from repro.service import (
    ApiKeyAuthenticator,
    BatchingConfig,
    GalleryIndex,
    ServiceClient,
    ServiceRunner,
    VerificationServer,
    generate_key,
    write_keyfile,
)
from repro.service.metrics import (
    EXPOSITION_CONTENT_TYPE,
    ExpositionParseError,
    parse_exposition,
    render_exposition,
    sample_value,
    scraped,
)
from repro.service.stats import FAMILIES, REQUESTS, ServiceStats

FINGER = "right_index"


@pytest.fixture(autouse=True)
def restore_recorder():
    previous = get_recorder()
    yield
    set_recorder(previous)


def _busy_stats():
    stats = ServiceStats()
    stats.record_request("enroll", 0.010, 201, device="D0")
    stats.record_request("verify", 0.020, 200, device="D0")
    stats.record_request("verify", 0.300, 200, device="D1")
    stats.record_request("healthz", 0.0001, 200)
    stats.record_decision(True)
    stats.record_decision(False)
    stats.record_queue_wait(0.004)
    stats.record_batch(4, requests=3, batch_id=7)
    stats.record_slow()
    return stats


class TestRenderer:
    def test_round_trips_through_strict_parser(self):
        families = parse_exposition(render_exposition(_busy_stats()))
        assert families["repro_requests_total"]["type"] == "counter"
        assert families["repro_request_latency_seconds"]["type"] == "histogram"

    def test_counter_values(self):
        families = parse_exposition(render_exposition(_busy_stats()))
        assert sample_value(
            families, "repro_requests_total", {"endpoint": "verify"}
        ) == 2
        assert sample_value(
            families, "repro_responses_total", {"status": "200"}
        ) == 3
        assert sample_value(
            families, "repro_decisions_total", {"decision": "accepted"}
        ) == 1
        assert sample_value(families, "repro_slow_requests_total") == 1
        assert sample_value(families, "repro_batch_last_id") == 7

    def test_latency_histogram_is_labeled_by_device(self):
        families = parse_exposition(render_exposition(_busy_stats()))
        d0 = sample_value(
            families,
            "repro_request_latency_seconds_count",
            {"endpoint": "verify", "device": "D0"},
        )
        d1 = sample_value(
            families,
            "repro_request_latency_seconds_count",
            {"endpoint": "verify", "device": "D1"},
        )
        assert d0 == 1 and d1 == 1

    def test_probe_traffic_counted_but_not_timed(self):
        families = parse_exposition(render_exposition(_busy_stats()))
        assert sample_value(
            families, "repro_requests_total", {"endpoint": "healthz"}
        ) == 1
        assert sample_value(
            families,
            "repro_request_latency_seconds_count",
            {"endpoint": "healthz"},
        ) is None

    def test_histogram_buckets_are_cumulative_and_end_in_inf(self):
        stats = ServiceStats()
        for seconds in (0.0005, 0.003, 0.003, 2.0, 100.0):
            stats.record_request("verify", seconds, 200)
        families = parse_exposition(render_exposition(stats))
        buckets = [
            (labels["le"], value)
            for name, labels, value
            in families["repro_request_latency_seconds"]["samples"]
            if name.endswith("_bucket")
        ]
        values = [v for _, v in buckets]
        assert values == sorted(values)
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == 5  # the 100s outlier only lands in +Inf

    def test_gallery_and_queue_gauges(self):
        text = render_exposition(
            _busy_stats(), gallery_devices={"D0": 3, "D1": 2}, queue_depth=4
        )
        families = parse_exposition(text)
        assert sample_value(
            families, "repro_gallery_enrolled", {"device": "D0"}
        ) == 3
        assert sample_value(families, "repro_queue_depth") == 4

    def test_telemetry_passthrough_when_enabled(self):
        enable_telemetry()
        stats = _busy_stats()  # mirrors into the recorder
        families = parse_exposition(render_exposition(stats))
        assert sample_value(
            families, "repro_telemetry_service_requests_total"
        ) == 4

    def test_no_telemetry_families_when_disabled(self):
        families = parse_exposition(render_exposition(_busy_stats()))
        assert not any(name.startswith("repro_telemetry_") for name in families)

    def test_content_type_constant(self):
        assert EXPOSITION_CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in EXPOSITION_CONTENT_TYPE


class TestDeclaredFamilies:
    """Every family in the declaration table, as a live server scrapes."""

    @pytest.fixture()
    def scrape(self, tmp_path, tiny_collection, matcher):
        key = generate_key()
        write_keyfile(tmp_path / "keys.json", [{
            "principal": "ops", "key": key,
            "roles": ["read", "write", "admin"], "limits": {},
        }])
        server = VerificationServer(
            GalleryIndex(tmp_path / "gallery"),
            matcher=matcher,
            port=0,
            batching=BatchingConfig(),
            auth=ApiKeyAuthenticator(tmp_path / "keys.json"),
            workers=2,
        )
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port, api_key=key) as client:
                for subject in (0, 1):
                    client.enroll(
                        f"subject-{subject}",
                        tiny_collection.get(subject, FINGER, "D0", 0).template,
                        device="D0",
                    )
                probe = tiny_collection.get(0, FINGER, "D0", 1).template
                client.verify("subject-0", probe, device="D0")
                client.identify(probe, device="D0", mode="two_stage")
                return parse_exposition(client.metrics())

    def test_rendered_families_are_exactly_the_declared_ones(self, scrape):
        declared = {f.name for f in FAMILIES if f.name is not None}
        rendered = {
            name for name in scrape if not name.startswith("repro_telemetry_")
        }
        assert rendered == declared

    def test_types_and_labels_match_the_declarations(self, scrape):
        for family in FAMILIES:
            if family.name is None:
                continue
            parsed = scrape[family.name]
            assert parsed["type"] == family.kind, family.name
            seen = set()
            for _, labels, _ in parsed["samples"]:
                seen |= set(labels) - {"le"}
            assert seen <= set(family.labels), family.name
            if seen:
                assert seen == set(family.labels), family.name

    def test_scraped_reads_a_family_back(self, scrape):
        requests = scraped(scrape, REQUESTS)
        assert requests[("enroll",)] == 2
        assert requests[("verify",)] == 1
        assert set(requests) == {(e,) for e in REQUESTS.values}


class TestStrictParser:
    def test_sample_before_type_rejected(self):
        with pytest.raises(ExpositionParseError, match="before its # TYPE"):
            parse_exposition("repro_x_total 1\n# TYPE repro_x_total counter\n")

    def test_bad_metric_name_rejected(self):
        with pytest.raises(ExpositionParseError):
            parse_exposition("# TYPE 9bad counter\n9bad 1\n")

    def test_duplicate_series_rejected(self):
        text = (
            "# TYPE repro_x_total counter\n"
            'repro_x_total{a="1"} 1\n'
            'repro_x_total{a="1"} 2\n'
        )
        with pytest.raises(ExpositionParseError, match="duplicate series"):
            parse_exposition(text)

    def test_malformed_labels_rejected(self):
        with pytest.raises(ExpositionParseError):
            parse_exposition(
                "# TYPE repro_x_total counter\nrepro_x_total{a=unquoted} 1\n"
            )

    def test_non_cumulative_histogram_rejected(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 5\n'
            'repro_h_bucket{le="1"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
        )
        with pytest.raises(ExpositionParseError, match="not cumulative"):
            parse_exposition(text)

    def test_missing_inf_bucket_rejected(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 1\n'
            "repro_h_sum 1\n"
            "repro_h_count 1\n"
        )
        with pytest.raises(ExpositionParseError, match=r"\+Inf"):
            parse_exposition(text)

    def test_inf_bucket_disagreeing_with_count_rejected(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 4\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
        )
        with pytest.raises(ExpositionParseError, match="!= count"):
            parse_exposition(text)

    def test_unparsable_value_rejected(self):
        with pytest.raises(ExpositionParseError, match="unparsable value"):
            parse_exposition("# TYPE repro_x gauge\nrepro_x banana\n")

    def test_inf_and_escapes_parse(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf",path="a\\"b"} 1\n'
            "repro_h_sum 0.5\n"
            "repro_h_count 1\n"
        )
        families = parse_exposition(text)
        name, labels, value = families["repro_h"]["samples"][0]
        assert labels["path"] == 'a"b'
        assert math.isinf(float(labels["le"].replace("+Inf", "inf")))
        assert value == 1
