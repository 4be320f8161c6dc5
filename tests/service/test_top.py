"""`repro top`: delta arithmetic, frame rendering, and a live session."""

import io

from repro.service import (
    BatchingConfig,
    GalleryIndex,
    ServiceClient,
    ServiceRunner,
    VerificationServer,
)
from repro.service.top import (
    DISPLAY_ENDPOINTS,
    compute_deltas,
    render_frame,
    run_top,
    take_sample,
)

FINGER = "right_index"


def _sample(t, verify=0, total=None, errors=0, batches=0, jobs=0):
    requests = {endpoint: 0.0 for endpoint in DISPLAY_ENDPOINTS}
    requests["verify"] = float(verify)
    requests["healthz"] = 0.0
    return {
        "time": t,
        "requests": requests,
        "total": float(total if total is not None else verify),
        "errors": float(errors),
        "latency": {"verify": {"count": verify, "p50_ms": 5.0,
                               "p95_ms": 9.0, "p99_ms": 9.9, "max_ms": 10.0}}
        if verify else {},
        "batches": float(batches),
        "jobs": float(jobs),
        "queued_jobs": 0,
        "uptime_seconds": t,
        "enrolled": 3,
        "overloads": 0,
        "deadline_exceeded": 0,
        "slow_requests": 0,
    }


class TestComputeDeltas:
    def test_first_frame_is_all_zeros(self):
        deltas = compute_deltas(None, _sample(10.0, verify=100))
        assert deltas["qps"] == 0.0
        assert deltas["error_rate"] == 0.0
        assert deltas["endpoints"]["verify"]["qps"] == 0.0
        # Window quantiles still show, they are not rates.
        assert deltas["endpoints"]["verify"]["p95_ms"] == 9.0

    def test_qps_is_per_second_between_samples(self):
        prev = _sample(10.0, verify=100)
        cur = _sample(12.0, verify=150)
        deltas = compute_deltas(prev, cur)
        assert deltas["endpoints"]["verify"]["qps"] == 25.0
        assert deltas["qps"] == 25.0
        assert deltas["interval_s"] == 2.0

    def test_error_rate_is_fraction_of_interval_requests(self):
        prev = _sample(0.0, verify=100, errors=10)
        cur = _sample(1.0, verify=120, errors=15)
        assert compute_deltas(prev, cur)["error_rate"] == 0.25

    def test_mean_batch_size_over_the_interval(self):
        prev = _sample(0.0, verify=10, batches=5, jobs=20)
        cur = _sample(1.0, verify=20, batches=9, jobs=40)
        assert compute_deltas(prev, cur)["mean_batch_size"] == 5.0

    def test_counter_reset_clamps_to_zero(self):
        prev = _sample(0.0, verify=100)
        cur = _sample(1.0, verify=3)  # server restarted
        assert compute_deltas(prev, cur)["endpoints"]["verify"]["qps"] == 0.0

    def test_zero_division_guards(self):
        prev = _sample(0.0)
        cur = _sample(1.0)
        deltas = compute_deltas(prev, cur)
        assert deltas["error_rate"] == 0.0
        assert deltas["mean_batch_size"] == 0.0


class TestRenderFrame:
    def test_frame_lists_every_display_endpoint(self):
        cur = _sample(5.0, verify=10)
        frame = render_frame(cur, compute_deltas(None, cur), "localhost", 8799)
        for endpoint in DISPLAY_ENDPOINTS:
            assert endpoint in frame
        assert "localhost:8799" in frame
        assert "\x1b" not in frame  # rendering stays escape-free

    def test_missing_window_renders_dash(self):
        cur = _sample(5.0)  # no latency windows at all
        frame = render_frame(cur, compute_deltas(None, cur), "h", 1)
        assert "-" in frame

    def test_probe_endpoints_not_shown(self):
        assert "healthz" not in DISPLAY_ENDPOINTS
        assert "stats" not in DISPLAY_ENDPOINTS
        assert "metrics" not in DISPLAY_ENDPOINTS


class TestLiveSession:
    def test_two_frames_against_a_real_server(
        self, tmp_path, tiny_collection, matcher
    ):
        server = VerificationServer(
            GalleryIndex(tmp_path / "gallery"),
            matcher=matcher,
            port=0,
            batching=BatchingConfig(),
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
            out = io.StringIO()
            code = run_top(
                host, port, interval_s=0.05, iterations=2, out=out, clear=False
            )
        assert code == 0
        text = out.getvalue()
        assert text.count("repro top —") == 2
        assert "verify" in text

    def test_take_sample_shape(self, tmp_path, tiny_collection, matcher):
        server = VerificationServer(
            GalleryIndex(tmp_path / "gallery"),
            matcher=matcher,
            port=0,
            batching=BatchingConfig(),
        )
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as client:
                client.enroll(
                    "subject-0",
                    tiny_collection.get(0, FINGER, "D0", 0).template,
                    device="D0",
                )
                sample = take_sample(client)
        assert sample["requests"]["enroll"] == 1.0
        assert sample["enrolled"] == 1
        assert sample["total"] >= 1.0

    def test_unreachable_server_exits_nonzero(self):
        out = io.StringIO()
        code = run_top("127.0.0.1", 1, interval_s=0.01, iterations=1, out=out)
        assert code == 1
        assert "repro top:" in out.getvalue()
