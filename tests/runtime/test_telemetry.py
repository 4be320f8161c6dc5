"""Telemetry core: spans, metrics, merge semantics, recorder switching."""

import io
import json
import logging

import pytest

from repro.runtime.telemetry import (
    DEFAULT_BUCKETS,
    JsonLogFormatter,
    MetricsRegistry,
    NullRecorder,
    TelemetryRecorder,
    configure_logging,
    disable_telemetry,
    enable_telemetry,
    get_logger,
    get_recorder,
    set_recorder,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture(autouse=True)
def restore_recorder():
    """Never leak a live recorder into other tests."""
    previous = get_recorder()
    yield
    set_recorder(previous)


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.count("a", 4)
        reg.count("b", 2)
        assert reg.counter_value("a") == 5
        assert reg.counter_value("b") == 2
        assert reg.counter_value("absent") == 0

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("w", 4.0)
        reg.gauge("w", 8.0)
        assert reg.snapshot()["gauges"]["w"] == 8.0

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (0.001, 0.002, 0.2):
            reg.observe("lat", v)
        hist = reg.snapshot()["histograms"]["lat"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(0.203)
        assert hist["min"] == pytest.approx(0.001)
        assert hist["max"] == pytest.approx(0.2)
        assert sum(hist["buckets"]) == 3

    def test_histogram_overflow_bucket(self):
        reg = MetricsRegistry()
        reg.observe("lat", 10 * max(DEFAULT_BUCKETS))
        assert reg.snapshot()["histograms"]["lat"]["buckets"][-1] == 1

    def test_merge_is_exact(self):
        """The process-pool contract: worker snapshots fold in losslessly."""
        parent, worker1, worker2 = (MetricsRegistry() for _ in range(3))
        parent.count("matcher.invocations", 10)
        worker1.count("matcher.invocations", 7)
        worker1.observe("lat", 0.004)
        worker2.count("matcher.invocations", 5)
        worker2.count("cache.hit", 1)
        worker2.observe("lat", 0.040)
        parent.merge(worker1.snapshot())
        parent.merge(worker2.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["matcher.invocations"] == 22
        assert snap["counters"]["cache.hit"] == 1
        assert snap["histograms"]["lat"]["count"] == 2
        assert snap["histograms"]["lat"]["min"] == pytest.approx(0.004)
        assert snap["histograms"]["lat"]["max"] == pytest.approx(0.040)

    def test_merge_rejects_mismatched_buckets(self):
        a = MetricsRegistry(buckets=(0.1, 1.0))
        b = MetricsRegistry()
        b.observe("lat", 0.5)
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_reset(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.observe("h", 1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.gauge("g", 2.0)
        reg.observe("h", 0.5)
        json.dumps(reg.snapshot())  # must not raise

    def test_labeled_series_are_separate(self):
        reg = MetricsRegistry()
        reg.count("req", labels=(("endpoint", "verify"),))
        reg.count("req", 2, labels=(("endpoint", "verify"),))
        reg.count("req", labels=(("endpoint", "enroll"),))
        reg.gauge("depth", 4)
        assert reg.series() == {
            "req": {(("endpoint", "verify"),): 3, (("endpoint", "enroll"),): 1},
            "depth": {(): 4},
        }
        assert reg.counter_value("req") == 0  # no unlabeled series

    def test_family_buckets_use_le_semantics(self):
        reg = MetricsRegistry(family_buckets={"size": (1, 2, 4)})
        for value in (1, 2, 3, 4, 9):
            reg.observe("size", value)
        reg.observe("other", 3)
        hists = reg.snapshot()["histograms"]
        assert hists["size"]["buckets"] == [1, 1, 2, 1]
        assert len(hists["other"]["buckets"]) == len(DEFAULT_BUCKETS) + 1

    def test_labeled_snapshot_merges(self):
        labels = (("worker", "0"),)
        a = MetricsRegistry(family_buckets={"h": (1.0,)})
        a.count("jobs", 2, labels=labels)
        a.observe("h", 0.5, labels=labels)
        b = MetricsRegistry(family_buckets={"h": (1.0,)})
        b.count("jobs", 3, labels=labels)
        b.merge(a.snapshot())
        assert b.series()["jobs"] == {labels: 5}
        assert b.series()["h"][labels]["buckets"] == [1, 0]

    def test_recorder_gauges_are_floats(self):
        recorder = TelemetryRecorder()
        recorder.gauge("g", 3)
        assert recorder.metrics.snapshot()["gauges"]["g"] == 3.0
        assert isinstance(recorder.metrics.snapshot()["gauges"]["g"], float)


class TestSpans:
    def test_nesting_and_timing(self):
        clock = FakeClock()
        recorder = TelemetryRecorder(clock=clock)
        with recorder.span("outer"):
            clock.advance(1.0)
            with recorder.span("inner"):
                clock.advance(0.25)
            clock.advance(0.5)
        tree = recorder.span_tree()
        assert tree["name"] == "run"
        outer = tree["children"][0]
        assert outer["name"] == "outer"
        assert outer["seconds"] == pytest.approx(1.75)
        assert outer["children"][0]["name"] == "inner"
        assert outer["children"][0]["seconds"] == pytest.approx(0.25)

    def test_siblings_attach_to_same_parent(self):
        recorder = TelemetryRecorder(clock=FakeClock())
        with recorder.span("a"):
            pass
        with recorder.span("b"):
            pass
        assert [c["name"] for c in recorder.span_tree()["children"]] == ["a", "b"]

    def test_span_closes_on_exception(self):
        clock = FakeClock()
        recorder = TelemetryRecorder(clock=clock)
        with pytest.raises(RuntimeError):
            with recorder.span("broken"):
                clock.advance(2.0)
                raise RuntimeError("boom")
        # The stack unwound: new spans attach to the root again.
        with recorder.span("after"):
            pass
        names = [c["name"] for c in recorder.span_tree()["children"]]
        assert names == ["broken", "after"]
        assert recorder.span_tree()["children"][0]["seconds"] == pytest.approx(2.0)

    def test_unfinished_span_reports_elapsed(self):
        clock = FakeClock()
        recorder = TelemetryRecorder(clock=clock)
        clock.advance(3.0)
        assert recorder.span_tree()["seconds"] == pytest.approx(3.0)


class TestRecorderSwitching:
    def test_default_is_null(self):
        disable_telemetry()
        assert isinstance(get_recorder(), NullRecorder)
        assert not get_recorder().active

    def test_null_recorder_is_inert(self):
        recorder = NullRecorder()
        with recorder.span("x") as span:
            assert span is None
        recorder.count("a")
        recorder.observe("h", 1.0)
        recorder.gauge("g", 1.0)
        assert recorder.metrics.snapshot()["counters"] == {}

    def test_enable_disable_roundtrip(self):
        recorder = enable_telemetry()
        assert get_recorder() is recorder and recorder.active
        disable_telemetry()
        assert not get_recorder().active


class TestJsonLogging:
    def test_formatter_emits_json(self):
        record = logging.LogRecord(
            "repro.cache", logging.WARNING, __file__, 1, "corrupt entry", (), None
        )
        record.data = {"key": "abc"}
        payload = json.loads(JsonLogFormatter().format(record))
        assert payload["level"] == "WARNING"
        assert payload["logger"] == "repro.cache"
        assert payload["message"] == "corrupt entry"
        assert payload["key"] == "abc"

    def test_configure_logging_is_idempotent(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        configure_logging("info", stream=stream)
        get_logger("test").info("once")
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 1
        assert json.loads(lines[0])["message"] == "once"
        # Restore library default so other tests stay silent.
        logger = logging.getLogger("repro")
        for handler in list(logger.handlers):
            if getattr(handler, "_repro_telemetry", False):
                logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
        logger.propagate = True

    def test_unconfigured_logger_is_silent(self, capsys):
        get_logger("quiet").warning("should not print")
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out == ""

    def test_level_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
        stream = io.StringIO()
        logger = configure_logging(stream=stream)
        assert logger.level == logging.DEBUG
        for handler in list(logger.handlers):
            if getattr(handler, "_repro_telemetry", False):
                logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
        logger.propagate = True
