"""Process-wide telemetry: span timing, metrics, and structured logs.

The study executes ~616,000 matcher invocations at paper scale; this
module is how that run stops being a black box.  Three cooperating
pieces, all dependency-free:

* :class:`Span` / :meth:`TelemetryRecorder.span` — a context-manager
  tree of wall-clock timings (synthesis → acquisition → extraction →
  matching → analysis), assembled into a nested dict for the run
  manifest.
* :class:`MetricsRegistry` — named counters, gauges and fixed-bucket
  histograms (matcher invocations per scenario, cache hits/misses,
  pool chunk latencies, NFIQ tallies).  Snapshots are plain dicts so
  worker processes can aggregate locally and the parent merges them
  on chunk return — no shared memory, no locks across processes.
* :func:`configure_logging` — stdlib ``logging`` with a single-line
  JSON formatter, switched by ``REPRO_LOG_LEVEL`` or ``--log-level``.
* :class:`TraceContext` — the serving layer's per-request span
  timeline (request id, named phases, micro-batch annotations),
  propagated through a :mod:`contextvars` variable so the admission
  queue and collector can annotate the request that enqueued each
  comparison without explicit plumbing.

Telemetry is **off by default**: the process-wide recorder starts as a
:class:`NullRecorder` whose every operation is a cheap no-op (mirroring
the ``NullProgress`` pattern), so the test suite and library users who
never opt in pay essentially nothing.  ``enable_telemetry()`` swaps in
a live :class:`TelemetryRecorder`; hot paths guard per-item work behind
``recorder.active``.
"""

from __future__ import annotations

import bisect
import contextvars
import json
import logging
import os
import re
import sys
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Histogram bucket upper bounds — a log-ish scale in seconds that
#: resolves both a ~1 ms matcher call and a ~10 s scenario chunk.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class MetricsRegistry:
    """Named counters, gauges and histograms for one process.

    Mutations are lock-protected (threads may share a registry); cross-
    process aggregation goes through :meth:`snapshot` on the worker and
    :meth:`merge` on the parent, which is how the score-generation pool
    reports without any shared state.

    A metric may carry labels — a tuple of ``(label, value)`` pairs —
    and then lives under the key ``(name, labels)`` instead of ``name``
    (the serving layer's :class:`~repro.service.stats.ServiceStats`
    keeps its Prometheus series this way).  A registry that never uses
    labels, like the telemetry recorder's, snapshots to plain JSON.

    Parameters
    ----------
    buckets:
        Histogram bucket upper bounds, strictly increasing, shared by
        every histogram not named in ``family_buckets`` so snapshots
        merge bucket-for-bucket.
    family_buckets:
        Per-name bucket bounds overriding ``buckets``.  An observation
        lands in the first bucket whose bound is ``>=`` it; larger ones
        land in a final overflow bucket.
    """

    def __init__(
        self,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        family_buckets: Optional[Dict[str, Tuple[float, ...]]] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._bounds = tuple(buckets)
        self._family_bounds = dict(family_buckets or {})
        self._counters: Dict[object, int] = {}
        self._gauges: Dict[object, float] = {}
        # key -> [count, total, min, max, per-bucket counts (+overflow)]
        self._histograms: Dict[object, list] = {}

    def _histogram(self, key, name: str) -> list:
        hist = self._histograms.get(key)
        if hist is None:
            bounds = self._family_bounds.get(name, self._bounds)
            hist = [0, 0.0, float("inf"), float("-inf"),
                    [0] * (len(bounds) + 1)]
            self._histograms[key] = hist
        return hist

    def count(self, name: str, n: int = 1, labels: tuple = ()) -> None:
        """Add ``n`` to the counter ``name`` (created at zero)."""
        key = (name, labels) if labels else name
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + n

    def gauge(self, name: str, value: float, labels: tuple = ()) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[(name, labels) if labels else name] = value

    def observe(self, name: str, value: float, labels: tuple = ()) -> None:
        """Record one observation into the histogram ``name``."""
        bounds = self._family_bounds.get(name, self._bounds)
        with self._lock:
            hist = self._histogram((name, labels) if labels else name, name)
            hist[0] += 1
            hist[1] += value
            hist[2] = min(hist[2], value)
            hist[3] = max(hist[3], value)
            hist[4][bisect.bisect_left(bounds, value)] += 1

    def counter_value(self, name: str) -> int:
        """Current value of counter ``name`` (zero if never counted)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """A copy of every metric, suitable for :meth:`merge`."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "count": h[0],
                        "sum": h[1],
                        "min": h[2],
                        "max": h[3],
                        "buckets": list(h[4]),
                    }
                    for name, h in self._histograms.items()
                },
                "bucket_bounds": list(self._bounds),
            }

    def series(self) -> Dict[str, Dict[tuple, object]]:
        """Every metric grouped by name: ``{name: {labels: value}}``.

        ``labels`` is ``()`` for an unlabeled metric; histogram values
        are shaped as in :meth:`snapshot`.
        """
        snap = self.snapshot()
        grouped: Dict[str, Dict[tuple, object]] = {}
        for section in ("counters", "gauges", "histograms"):
            for key, value in snap[section].items():
                name, labels = (key, ()) if isinstance(key, str) else key
                grouped.setdefault(name, {})[labels] = value
        return grouped

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (typically from a worker process) in.

        Counters add, gauges last-write-win, histograms combine count /
        sum / min / max and add bucket-for-bucket.  Raises ``ValueError``
        when the snapshot's bucket bounds disagree with this registry's
        (merging those would silently misfile observations).
        """
        bounds = snapshot.get("bucket_bounds")
        if bounds is not None and tuple(bounds) != self._bounds:
            raise ValueError(
                "cannot merge metrics snapshot: bucket bounds differ"
            )
        with self._lock:
            for key, value in snapshot.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0) + value
            for key, value in snapshot.get("gauges", {}).items():
                self._gauges[key] = value
            for key, data in snapshot.get("histograms", {}).items():
                hist = self._histogram(
                    key, key if isinstance(key, str) else key[0]
                )
                hist[0] += data["count"]
                hist[1] += data["sum"]
                hist[2] = min(hist[2], data["min"])
                hist[3] = max(hist[3], data["max"])
                for k, bucket_count in enumerate(data["buckets"]):
                    hist[4][k] += bucket_count

    def reset(self) -> None:
        """Drop every metric (used by pool workers between chunks)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class Span:
    """One timed node in the span tree.

    Spans are created by :meth:`TelemetryRecorder.span`; ``seconds`` is
    ``None`` while the span is still open.
    """

    __slots__ = ("name", "started_at", "seconds", "children")

    def __init__(self, name: str, started_at: float) -> None:
        self.name = name
        self.started_at = started_at
        self.seconds: Optional[float] = None
        self.children: List["Span"] = []

    def to_dict(self, now: Optional[float] = None) -> dict:
        """Nested-dict form used by the run manifest.

        An unfinished span reports its elapsed time so far when ``now``
        is given, else ``0.0``.
        """
        if self.seconds is not None:
            seconds = self.seconds
        elif now is not None:
            seconds = max(0.0, now - self.started_at)
        else:
            seconds = 0.0
        return {
            "name": self.name,
            "seconds": round(seconds, 6),
            "children": [child.to_dict(now) for child in self.children],
        }


class TelemetryRecorder:
    """Spans + metrics for one process.

    One recorder is process-wide (see :func:`get_recorder`); the span
    stack assumes spans open and close on a single thread, which is how
    the study pipeline runs.  Metrics are thread-safe.

    Parameters
    ----------
    clock:
        Injectable monotonic time source, for deterministic tests.
    """

    #: Hot paths check this before doing per-item timing work.
    active = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.metrics = MetricsRegistry()
        self._root = Span("run", clock())
        self._stack: List[Span] = [self._root]

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open a child span of the innermost open span."""
        node = Span(name, self._clock())
        self._stack[-1].children.append(node)
        self._stack.append(node)
        try:
            yield node
        finally:
            node.seconds = self._clock() - node.started_at
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        """Increment a counter (delegates to :attr:`metrics`)."""
        self.metrics.count(name, n)

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge (delegates to :attr:`metrics`, stored as a float)."""
        self.metrics.gauge(name, float(value))

    def observe(self, name: str, value: float) -> None:
        """Record a histogram observation (delegates to :attr:`metrics`)."""
        self.metrics.observe(name, value)

    def merge_metrics(self, snapshot: dict) -> None:
        """Fold a worker-process metrics snapshot into this recorder."""
        self.metrics.merge(snapshot)

    def counter_value(self, name: str) -> int:
        """Current value of one counter (0 when never incremented).

        Convenience for assertions — chaos tests check recovery through
        ``recorder.counter_value("supervisor.retries")`` instead of
        taking a full snapshot.
        """
        return self.metrics.counter_value(name)

    def span_tree(self) -> dict:
        """The full span tree; the root covers the recorder's lifetime."""
        return self._root.to_dict(self._clock())


class NullRecorder(TelemetryRecorder):
    """The default recorder: counts nothing, times nothing, writes nothing.

    Mirrors :class:`~repro.runtime.progress.NullProgress` — the library
    is always instrumented, but pays for it only after
    :func:`enable_telemetry`.
    """

    active = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A no-op context manager."""
        yield None

    def count(self, name: str, n: int = 1) -> None:
        """No-op."""

    def gauge(self, name: str, value: float) -> None:
        """No-op."""

    def observe(self, name: str, value: float) -> None:
        """No-op."""

    def merge_metrics(self, snapshot: dict) -> None:
        """No-op."""


_RECORDER: TelemetryRecorder = NullRecorder()


def get_recorder() -> TelemetryRecorder:
    """The process-wide recorder (a :class:`NullRecorder` until enabled)."""
    return _RECORDER


def set_recorder(recorder: TelemetryRecorder) -> TelemetryRecorder:
    """Install ``recorder`` process-wide; returns the previous one."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder
    return previous


def enable_telemetry(
    clock: Callable[[], float] = time.perf_counter,
) -> TelemetryRecorder:
    """Swap in a live recorder and return it."""
    recorder = TelemetryRecorder(clock=clock)
    set_recorder(recorder)
    return recorder


def disable_telemetry() -> None:
    """Restore the zero-overhead :class:`NullRecorder`."""
    set_recorder(NullRecorder())


# ----------------------------------------------------------------------
# Request tracing
# ----------------------------------------------------------------------
#: Accepted shape of a caller-supplied request id (an ``X-Request-ID``
#: header).  Anything else is replaced by a generated id rather than
#: flowed into logs verbatim.
_REQUEST_ID_PATTERN = re.compile(r"^[A-Za-z0-9._\-]{1,128}$")


def new_request_id() -> str:
    """A fresh 16-hex-character request id (collision-safe per service)."""
    return uuid.uuid4().hex[:16]


def sanitize_request_id(candidate: Optional[str]) -> Optional[str]:
    """``candidate`` if it is a well-formed request id, else ``None``.

    Guards the reqlog and the response headers against header injection:
    only short token-ish ids propagate; everything else is regenerated.
    """
    if isinstance(candidate, str) and _REQUEST_ID_PATTERN.match(candidate):
        return candidate
    return None


class TracePhase:
    """One named, timed segment of a request's life."""

    __slots__ = ("name", "seconds")

    def __init__(self, name: str, seconds: float) -> None:
        self.name = name
        self.seconds = seconds

    def to_dict(self) -> dict:
        """Render as ``{"name": ..., "ms": ...}`` for timelines and logs."""
        return {"name": self.name, "ms": round(self.seconds * 1000.0, 3)}


class TraceContext:
    """The per-request span timeline of the serving layer.

    One is created per HTTP request (see
    :class:`~repro.service.server.VerificationServer`), installed in a
    :mod:`contextvars` variable so every coroutine the request awaits —
    including :meth:`~repro.service.batching.MicroBatcher.score` — can
    reach it without plumbing, and serialized into the request audit log
    when the response goes out.  Phases appear in completion order; the
    canonical lifecycle is ``parse → gallery → [prefilter →] queue_wait
    → batch_wait → match → respond`` (``prefilter`` only appears on
    two-stage ``/identify`` requests, timing the descriptor top-K scan).

    The micro-batch collector annotates the trace from the event loop
    via :meth:`note_batch` (which batch carried each comparison, how
    long it queued); the request's own coroutine only reads the trace
    after its scores resolve, so no locking is needed on the single
    serving loop.
    """

    __slots__ = (
        "request_id", "endpoint", "started_at", "phases",
        "batch_ids", "queue_wait_s", "batch_wait_s", "match_s",
        "meta", "_clock",
    )

    def __init__(
        self,
        request_id: Optional[str] = None,
        endpoint: str = "",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.request_id = request_id or new_request_id()
        self.endpoint = endpoint
        self._clock = clock
        self.started_at = clock()
        self.phases: List[TracePhase] = []
        self.batch_ids: List[int] = []
        self.queue_wait_s = 0.0
        self.batch_wait_s = 0.0
        self.match_s = 0.0
        self.meta: Dict[str, object] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named segment and append it to the timeline."""
        started = self._clock()
        try:
            yield
        finally:
            self.add_phase(name, self._clock() - started)

    def add_phase(self, name: str, seconds: float) -> None:
        """Append one already-measured segment."""
        self.phases.append(TracePhase(name, max(0.0, seconds)))

    def note_batch(
        self,
        batch_id: int,
        queue_wait_s: float,
        batch_wait_s: float,
        match_s: float,
    ) -> None:
        """Record that one of this request's comparisons rode ``batch_id``.

        A 1:N identify fans into many jobs which may land in several
        batches; waits aggregate by ``max`` (the jobs overlap in time,
        so the slowest one is what the client experienced).
        """
        if batch_id not in self.batch_ids:
            self.batch_ids.append(batch_id)
        self.queue_wait_s = max(self.queue_wait_s, queue_wait_s)
        self.batch_wait_s = max(self.batch_wait_s, batch_wait_s)
        self.match_s = max(self.match_s, match_s)

    def finalize_batch_phases(self) -> None:
        """Fold the batch annotations into the phase timeline.

        Called once by the server after the handler returns, so the
        queue/batch/match segments appear in their canonical position
        even though they were measured by the collector.
        """
        if not self.batch_ids:
            return
        self.add_phase("queue_wait", self.queue_wait_s)
        self.add_phase("batch_wait", self.batch_wait_s)
        self.add_phase("match", self.match_s)

    def elapsed(self) -> float:
        """Seconds since the trace started."""
        return self._clock() - self.started_at

    def timeline(self) -> dict:
        """The JSON-able span timeline (reqlog / slow-log payload)."""
        return {
            "request_id": self.request_id,
            "endpoint": self.endpoint,
            "total_ms": round(self.elapsed() * 1000.0, 3),
            "phases": [phase.to_dict() for phase in self.phases],
            "batch_ids": list(self.batch_ids),
            "queue_wait_ms": round(self.queue_wait_s * 1000.0, 3),
            "batch_wait_ms": round(self.batch_wait_s * 1000.0, 3),
            "match_ms": round(self.match_s * 1000.0, 3),
        }


_TRACE: "contextvars.ContextVar[Optional[TraceContext]]" = contextvars.ContextVar(
    "repro_trace", default=None
)


def current_trace() -> Optional[TraceContext]:
    """The trace of the request the current coroutine is serving."""
    return _TRACE.get()


def set_current_trace(
    trace: Optional[TraceContext],
) -> "contextvars.Token":
    """Install ``trace`` for the current context; returns a reset token."""
    return _TRACE.set(trace)


def reset_current_trace(token: "contextvars.Token") -> None:
    """Undo a :func:`set_current_trace` (restores the previous trace)."""
    _TRACE.reset(token)


@contextmanager
def trace_request(
    request_id: Optional[str] = None, endpoint: str = ""
) -> Iterator[TraceContext]:
    """Create, install, and on exit uninstall a :class:`TraceContext`."""
    trace = TraceContext(request_id=request_id, endpoint=endpoint)
    token = set_current_trace(trace)
    try:
        yield trace
    finally:
        reset_current_trace(token)


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------
class JsonLogFormatter(logging.Formatter):
    """Render each log record as one JSON object per line.

    A machine-parsable run log pairs with the run manifest: the manifest
    is the end-of-run summary, the log is the during-run stream.
    """

    def format(self, record: logging.LogRecord) -> str:
        """Serialize ``record`` (plus any ``extra={"data": ...}``)."""
        payload = {
            "ts": round(record.created, 3),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        data = getattr(record, "data", None)
        if isinstance(data, dict):
            payload.update(data)
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


def configure_logging(
    level: Optional[str] = None, stream=None
) -> logging.Logger:
    """Configure the ``repro`` logger with a JSON handler.

    ``level`` falls back to ``REPRO_LOG_LEVEL`` and then ``WARNING``.
    Idempotent: a previously-installed telemetry handler is replaced,
    not stacked, so repeated CLI invocations in one process never
    double-log.
    """
    resolved = (level or os.environ.get("REPRO_LOG_LEVEL") or "WARNING").upper()
    logger = logging.getLogger("repro")
    logger.setLevel(resolved)
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_telemetry", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLogFormatter())
    handler._repro_telemetry = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    logger.propagate = False
    return logger


def get_logger(name: str) -> logging.Logger:
    """A child of the ``repro`` logger (silent until configured)."""
    return logging.getLogger(f"repro.{name}")


# Library etiquette: without configure_logging(), repro loggers must stay
# silent rather than fall through to logging's last-resort handler.
logging.getLogger("repro").addHandler(logging.NullHandler())


__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "Span",
    "TelemetryRecorder",
    "NullRecorder",
    "get_recorder",
    "set_recorder",
    "enable_telemetry",
    "disable_telemetry",
    "TraceContext",
    "TracePhase",
    "new_request_id",
    "sanitize_request_id",
    "current_trace",
    "set_current_trace",
    "reset_current_trace",
    "trace_request",
    "JsonLogFormatter",
    "configure_logging",
    "get_logger",
]
