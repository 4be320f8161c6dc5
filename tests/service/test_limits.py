"""Admission control: token buckets, quotas, and live 429 behavior.

Everything bucket-shaped runs against a hand-driven clock, so refusals
and ``retry_after`` values are asserted exactly; the live-server tests
then confirm the 429 surfaces in the ``/v1`` envelope with a
``Retry-After`` header the client's transparent retry can sleep on.
"""

import pytest

from repro.runtime.errors import TransientError
from repro.service import (
    BatchingConfig,
    GalleryIndex,
    ServiceClient,
    ServiceClientError,
    ServiceRunner,
    VerificationServer,
    parse_exposition,
    sample_value,
)
from repro.service.limits import (
    DEFAULT_BURSTS,
    DEFAULT_RATES,
    ENDPOINT_CLASSES,
    LimitsConfig,
    RateLimiter,
    RateLimitExceeded,
    TokenBucket,
)

FINGER = "right_index"


class Clock:
    """A clock the test winds by hand."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_burst_then_exact_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert [bucket.try_acquire(0.0) for _ in range(3)] == [0.0] * 3
        # Empty: the next token lands in 1/rate seconds, exactly.
        assert bucket.try_acquire(0.0) == pytest.approx(0.5)
        assert bucket.try_acquire(0.5) == 0.0
        assert bucket.try_acquire(0.5) == pytest.approx(0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        bucket.try_acquire(0.0)
        # An hour idle refills to the ceiling, not beyond it.
        for _ in range(2):
            assert bucket.try_acquire(3600.0) == 0.0
        assert bucket.try_acquire(3600.0) > 0.0

    def test_zero_rate_never_admits_after_burst(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, now=0.0)
        assert bucket.try_acquire(0.0) == 0.0
        assert bucket.try_acquire(1e9) == float("inf")

    def test_clock_regression_is_harmless(self):
        bucket = TokenBucket(rate=1.0, burst=1.0, now=10.0)
        assert bucket.try_acquire(5.0) == 0.0  # no negative elapsed credit


class TestRateLimiter:
    def _limiter(self, clock, **config):
        return RateLimiter(config=LimitsConfig(**config), clock=clock)

    def test_burst_exhaustion_reports_exact_wait(self):
        clock = Clock()
        limiter = self._limiter(clock, rates={"read": 4.0}, bursts={"read": 2.0})
        limiter.check("alice", "verify")
        limiter.check("alice", "identify")  # same class, same bucket
        with pytest.raises(RateLimitExceeded) as excinfo:
            limiter.check("alice", "verify")
        assert excinfo.value.scope == "rate"
        assert excinfo.value.retry_after == pytest.approx(0.25)
        assert limiter.rate_limited_total == 1
        clock.now = 0.25
        limiter.check("alice", "verify")

    def test_classes_and_principals_are_independent(self):
        clock = Clock()
        limiter = self._limiter(
            clock, rates={"read": 1.0, "write": 1.0},
            bursts={"read": 1.0, "write": 1.0},
        )
        limiter.check("alice", "verify")
        with pytest.raises(RateLimitExceeded):
            limiter.check("alice", "verify")
        limiter.check("alice", "enroll")  # write bucket untouched
        limiter.check("bob", "verify")    # bob's read bucket untouched

    def test_unlimited_endpoints_pass_through(self):
        clock = Clock()
        limiter = self._limiter(clock, rates={"read": 1.0}, bursts={"read": 1.0})
        for _ in range(50):
            limiter.check("alice", "healthz")
        assert limiter.bucket_occupancy() == 0

    def test_zero_rate_disables_the_class(self):
        clock = Clock()
        limiter = self._limiter(clock, rates={"read": 0.0})
        for _ in range(50):
            limiter.check("alice", "verify")

    def test_per_principal_override_beats_role_default(self):
        clock = Clock()
        limiter = RateLimiter(
            config=LimitsConfig(rates={"read": 100.0}, bursts={"read": 100.0}),
            overrides={"tight": {"read": {"rate": 1.0, "burst": 1.0}}},
            clock=clock,
        )
        limiter.check("tight", "verify")
        with pytest.raises(RateLimitExceeded):
            limiter.check("tight", "verify")
        for _ in range(50):
            limiter.check("roomy", "verify")

    def test_quota_charged_only_after_bucket_admits(self):
        clock = Clock()
        limiter = RateLimiter(
            config=LimitsConfig(
                rates={"read": 1.0}, bursts={"read": 1.0},
                quota=5, quota_window_s=60.0,
            ),
            clock=clock,
        )
        limiter.check("alice", "verify")
        for _ in range(3):  # throttled by the bucket, quota untouched
            with pytest.raises(RateLimitExceeded) as excinfo:
                limiter.check("alice", "verify")
            assert excinfo.value.scope == "rate"
        assert limiter.snapshot()["quotas"]["alice"]["used"] == 1

    def test_quota_exhaustion_and_window_roll(self):
        clock = Clock()
        limiter = RateLimiter(
            config=LimitsConfig(
                rates={"read": 1000.0}, bursts={"read": 1000.0},
                quota=3, quota_window_s=60.0,
            ),
            clock=clock,
        )
        for _ in range(3):
            limiter.check("alice", "verify")
        clock.now = 10.0
        with pytest.raises(RateLimitExceeded) as excinfo:
            limiter.check("alice", "verify")
        assert excinfo.value.scope == "quota"
        assert excinfo.value.retry_after == pytest.approx(50.0)
        clock.now = 60.0  # window rolls, budget resets
        limiter.check("alice", "verify")
        assert limiter.snapshot()["quotas"]["alice"]["used"] == 1

    def test_bucket_lru_is_bounded(self):
        clock = Clock()
        limiter = RateLimiter(
            config=LimitsConfig(max_buckets=8), clock=clock
        )
        for index in range(32):
            limiter.check(f"principal-{index}", "verify")
        assert limiter.bucket_occupancy() == 8
        snapshot = limiter.snapshot()
        assert snapshot["bucket_occupancy"] == 8
        assert snapshot["max_buckets"] == 8

    def test_set_overrides_reclamps_live_buckets(self):
        clock = Clock()
        limiter = self._limiter(
            clock, rates={"read": 10.0}, bursts={"read": 10.0}
        )
        limiter.check("alice", "verify")  # bucket now holds 9 tokens
        limiter.set_overrides({"alice": {"read": {"rate": 1.0, "burst": 2.0}}})
        limiter.check("alice", "verify")
        limiter.check("alice", "verify")  # the clamped 2 tokens are gone
        with pytest.raises(RateLimitExceeded):
            limiter.check("alice", "verify")

    def test_snapshot_shape(self):
        limiter = RateLimiter(clock=Clock())
        snapshot = limiter.snapshot()
        assert snapshot["rates"] == DEFAULT_RATES
        assert snapshot["bursts"] == DEFAULT_BURSTS
        assert snapshot["rate_limited_total"] == 0
        assert snapshot["quotas"] == {}

    def test_every_routed_endpoint_is_classified(self):
        # Every limited endpoint must map onto a real class; healthz is
        # deliberately absent (probes are never throttled).
        assert "healthz" not in ENDPOINT_CLASSES
        assert set(ENDPOINT_CLASSES.values()) == {"read", "write", "admin"}


class TestLimitsConfigEnvironment:
    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_RATE_READ", "7")
        monkeypatch.setenv("REPRO_SERVE_BURST_READ", "9")
        monkeypatch.setenv("REPRO_SERVE_QUOTA", "123")
        monkeypatch.setenv("REPRO_SERVE_QUOTA_WINDOW_S", "30")
        config = LimitsConfig.from_environment()
        assert config.rates["read"] == 7.0
        assert config.bursts["read"] == 9.0
        assert config.rates["write"] == DEFAULT_RATES["write"]
        assert config.quota == 123
        assert config.quota_window_s == 30.0

    def test_explicit_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_RATE_READ", "7")
        config = LimitsConfig.from_environment(rates={"read": 2.0})
        assert config.rates["read"] == 2.0


class _FakeExchangeClient(ServiceClient):
    """A client whose transport is a scripted list of responses."""

    def __init__(self, script, **kwargs):
        super().__init__("127.0.0.1", 0, **kwargs)
        self.script = list(script)
        self.exchanges = 0

    def _exchange(self, method, path, payload=None):
        self.exchanges += 1
        status, body, headers = self.script.pop(0)
        self.last_headers = headers
        self.last_request_id = "req-test"
        return status, body


def _throttled(retry_after):
    return (
        429,
        b'{"error": {"code": "rate_limited", "message": "slow down",'
        b' "request_id": "r1"}}',
        {"retry-after": f"{retry_after:.3f}"},
    )


_OK = (200, b'{"decision": "accept"}', {})


class TestClientRetry:
    def test_disabled_by_default_surfaces_429(self):
        client = _FakeExchangeClient([_throttled(0.2)])
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/v1/verify", {})
        assert excinfo.value.status == 429
        assert excinfo.value.code == "rate_limited"
        assert excinfo.value.retryable
        assert client.exchanges == 1

    def test_retries_sleep_the_advertised_delay(self, monkeypatch):
        naps = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", naps.append
        )
        client = _FakeExchangeClient(
            [_throttled(0.25), _throttled(0.5), _OK],
            retry_rate_limited=3,
        )
        assert client._request("POST", "/v1/verify", {}) == {
            "decision": "accept"
        }
        assert client.exchanges == 3
        assert naps == [pytest.approx(0.25), pytest.approx(0.5)]

    def test_attempts_are_bounded(self, monkeypatch):
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda _s: None
        )
        client = _FakeExchangeClient(
            [_throttled(0.01)] * 5, retry_rate_limited=2
        )
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("POST", "/v1/verify", {})
        assert excinfo.value.status == 429
        assert client.exchanges == 3  # initial try + 2 retries

    def test_missing_retry_after_uses_default_backoff(self, monkeypatch):
        naps = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", naps.append
        )
        throttled_bare = (429, b'{"error": "busy"}', {})
        client = _FakeExchangeClient(
            [throttled_bare, _OK], retry_rate_limited=1
        )
        client._request("POST", "/v1/verify", {})
        assert naps == [pytest.approx(0.05)]


@pytest.fixture()
def limited_service(tmp_path, tiny_collection, matcher):
    """An open (auth-off) server with a tiny read bucket: burst 2,
    one token every 5 s — slow enough that a test burst can never
    outrun a refill."""
    gallery = GalleryIndex(tmp_path / "gallery")
    gallery.enroll(
        "subject-0",
        tiny_collection.get(0, FINGER, "D0", 0).template,
        device="D0",
    )
    limiter = RateLimiter(
        config=LimitsConfig(rates={"read": 0.2}, bursts={"read": 2.0})
    )
    server = VerificationServer(
        gallery,
        matcher=matcher,
        port=0,
        batching=BatchingConfig(),
        limits=limiter,
    )
    with ServiceRunner(server) as (host, port):
        yield host, port


class TestLimitedServer:
    def test_burst_surfaces_429_with_retry_after(
        self, limited_service, tiny_collection
    ):
        host, port = limited_service
        probe = tiny_collection.get(0, FINGER, "D0", 1).template
        with ServiceClient(host, port) as client:
            for _ in range(2):
                client.verify("subject-0", probe, device="D0")
            with pytest.raises(ServiceClientError) as excinfo:
                client.verify("subject-0", probe, device="D0")
            assert excinfo.value.status == 429
            assert excinfo.value.code == "rate_limited"
            assert excinfo.value.request_id
            assert excinfo.value.retryable
            retry_after = float(client.last_headers["retry-after"])
            assert 0.0 < retry_after <= 5.0
            # Bucketing is per endpoint class: probes stay open and the
            # admin surface still answers under a read-side flood.
            assert client.healthz()["status"] == "ok"
            stats = client.stats()
            limits = stats["auth"]["limits"]
            assert limits["rate_limited_total"] >= 1
            # The /stats call itself opened the ("anonymous", "admin")
            # bucket alongside the read bucket the burst used.
            assert limits["bucket_occupancy"] == 2

    def test_429_lands_in_metrics_and_top_counters(self, limited_service, tiny_collection):
        host, port = limited_service
        probe = tiny_collection.get(0, FINGER, "D0", 1).template
        with ServiceClient(host, port) as client:
            for _ in range(2):
                client.verify("subject-0", probe, device="D0")
            for _ in range(3):
                with pytest.raises(ServiceClientError):
                    client.verify("subject-0", probe, device="D0")
            families = parse_exposition(client.metrics())
            assert sample_value(
                families, "repro_rate_limited_total", {}
            ) == 3
            assert sample_value(
                families, "repro_rate_limited_total",
                {"principal": "anonymous"},
            ) == 3
            # read bucket from the burst + admin bucket from this scrape
            assert sample_value(families, "repro_limit_buckets", {}) == 2
            assert client.stats()["statuses"].get("429") == 3


def test_transparent_retry_succeeds_with_fast_refill(
    tmp_path, tiny_collection, matcher
):
    """burst 1, 20 tokens/s: every other request 429s, and a client with
    retry_rate_limited=2 still completes a 6-request sweep untouched."""
    gallery = GalleryIndex(tmp_path / "gallery")
    gallery.enroll(
        "subject-0",
        tiny_collection.get(0, FINGER, "D0", 0).template,
        device="D0",
    )
    limiter = RateLimiter(
        config=LimitsConfig(rates={"read": 20.0}, bursts={"read": 1.0})
    )
    server = VerificationServer(
        gallery,
        matcher=matcher,
        port=0,
        batching=BatchingConfig(),
        limits=limiter,
    )
    probe = tiny_collection.get(0, FINGER, "D0", 1).template
    with ServiceRunner(server) as (host, port):
        with ServiceClient(host, port, retry_rate_limited=2) as client:
            for _ in range(6):
                reply = client.verify("subject-0", probe, device="D0")
                assert reply["decision"] == "accept"
    assert limiter.rate_limited_total >= 1  # the retries really hit 429s
