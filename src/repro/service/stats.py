"""The serving metric families, declared once, and the store behind them.

Every serving metric is one :class:`Family` in :data:`FAMILIES`: its
Prometheus name, type, help text, labels and buckets, the telemetry
recorder names it mirrors into, where its value comes from, and where
it appears in ``/stats`` and in the run manifest.  Each surface is a
loop over that table:

* ``GET /metrics`` — :func:`repro.service.metrics.render_exposition`;
* ``GET /stats`` — :meth:`ServiceStats.snapshot`;
* the run manifest's ``service`` and ``trace`` rollups —
  :mod:`repro.runtime.manifest`, reading the recorder by each family's
  ``rollup`` entries;
* ``repro top`` — :mod:`repro.service.top`, reading a scrape by family;
* the metric tables in ``docs/observability.md`` —
  :func:`repro.service.metrics.catalogue_rows`, checked by the tests.

A family's value either is *recorded* — :meth:`ServiceStats.record`
writes each event once into a labeled
:class:`~repro.runtime.telemetry.MetricsRegistry` and, when telemetry
is enabled, into the recorder names the family declares — or is
*collected* at read time from a value another component already owns
(the WAL, the gallery, the limiter, the worker pool), passed in as a
named source.

Probe traffic — ``healthz``, ``stats``, ``metrics``, ``admin``, the
endpoints a monitoring loop hits every few seconds — is *counted* but
excluded from every latency distribution: those requests answer in
microseconds, and under scrape load they drag p50 toward zero and mask
real matcher latency.

Exact window quantiles (``/stats`` ``latency``, the
``repro_request_latency_window_ms`` gauges) come from a sliding window
of the last :data:`LATENCY_WINDOW` requests per endpoint; the
micro-batch size distribution in ``/stats`` rides
:class:`repro.stats.histogram.Histogram`, the binned-distribution type
the paper's figures use.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..runtime.telemetry import MetricsRegistry, get_recorder
from ..stats.histogram import score_histogram

#: Sliding-window length for exact latency quantiles.  Old observations
#: fall out; the totals keep counting forever.
LATENCY_WINDOW = 4096

#: The endpoints the service tallies individually.
ENDPOINTS = (
    "enroll", "verify", "identify", "delete", "healthz", "stats", "metrics",
    "admin",
)

#: Monitoring endpoints excluded from the latency windows (still counted).
PROBE_ENDPOINTS = frozenset({"healthz", "stats", "metrics", "admin"})

#: Authentication outcomes tallied on a keyed server.
AUTH_OUTCOMES = ("ok", "unauthorized", "forbidden")

#: Bucket upper bounds (seconds) for the Prometheus latency histograms.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Bucket upper bounds (jobs) for the batch-size / batch-requests
#: histograms — powers of two up to the largest sane micro-batch.
BATCH_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Bucket upper bounds (seconds) for the identify prefilter stage —
#: descriptor search is sub-millisecond at paper scale, milliseconds at
#: millions, so the grid starts two decades below LATENCY_BUCKETS.
PREFILTER_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
)


@dataclass(frozen=True)
class Family:
    """One serving metric, declared once.

    Attributes
    ----------
    name:
        The Prometheus family, or ``None`` for a metric that exists only
        in the telemetry recorder.
    kind:
        ``"counter"``, ``"gauge"`` or ``"histogram"``.
    labels:
        Label names; a series leaves out a label whose value is empty.
    values:
        Values of the first label whose series exist from the start at
        zero.  A recorded family stores no other value (the telemetry
        mirror still counts it).
    telemetry:
        Recorder names, ``{label}`` filled from the event's labels.  A
        recorded family writes each of them on every event; a collected
        gauge's are sampled by :meth:`ServiceStats.publish`; a collected
        counter's are written by the component that owns the value.
    collect:
        ``None`` for a recorded family; otherwise a function of the
        sources mapping returning the value — a number, or a dict keyed
        by label value (a tuple for several labels) — or ``None`` when
        its source is absent, which leaves the family out.
    stats:
        Where ``/stats`` carries the value (dotted path); a second path
        receives the sum over the labeled series.  ``{label}`` in the
        path places each series under its own key.
    rollup:
        Manifest paths ``block/key[:reading]`` filled from the recorder
        (readings: counters by value; gauges ``int`` or ``flag``;
        histograms ``count``, ``sum``, ``max`` or ``mean_ms``).  A final
        ``{label}`` segment expands over the declared ``values``, the
        ``{label=a|b}`` ones, or else every name the recorder holds.
    total:
        The exposition also carries the unlabeled sum of the series.
    """

    name: Optional[str]
    kind: str
    help: str
    labels: Tuple[str, ...] = ()
    values: Tuple[str, ...] = ()
    buckets: Tuple[float, ...] = ()
    telemetry: Tuple[str, ...] = ()
    collect: Optional[Callable[[dict], object]] = None
    stats: Tuple[str, ...] = ()
    rollup: Tuple[str, ...] = ()
    total: bool = False


def _source(key: str, field: Optional[str] = None, convert=None):
    """A collector reading ``sources[key]`` (or one ``field`` of it)."""

    def collect(sources: dict):
        value = sources.get(key)
        if value is None:
            return None
        if field is not None:
            value = value.get(field, 0)
        return convert(value) if convert is not None else value

    return collect


def _window_quantiles(sources: dict) -> dict:
    return {
        (endpoint, quantile): window[f"{quantile}_ms"]
        for endpoint, window in sources["stats"].latency_snapshot().items()
        for quantile in ("p50", "p95", "p99")
    }


def _wal(name: str, kind: str, help_text: str, field: str,
         telemetry: str = "") -> Family:
    """A write-ahead-log family collected from the gallery's WAL stats.

    ``telemetry`` names the counter the WAL itself records, which the
    manifest's ``service/wal/<field>`` rollup reads.
    """
    return Family(
        name, kind, help_text, collect=_source("wal", field),
        telemetry=(telemetry,) if telemetry else (),
        rollup=(f"service/wal/{field}",) if telemetry else (),
    )


UPTIME = Family(
    "repro_uptime_seconds", "gauge", "Seconds since server start.",
    collect=lambda s: round(time.time() - s["stats"].started_at, 3),
    stats=("uptime_seconds",),
)
REQUESTS = Family(
    "repro_requests_total", "counter",
    "HTTP requests finished, by endpoint (probes included).",
    labels=("endpoint",), values=ENDPOINTS,
    telemetry=("service.requests", "service.requests.{endpoint}"),
    stats=("requests", "requests_total"),
    rollup=("service/requests", "service/{endpoint=enroll|verify|identify}"),
)
RESPONSES = Family(
    "repro_responses_total", "counter", "HTTP responses sent, by status code.",
    labels=("status",), telemetry=("service.status.{status}",),
    stats=("statuses",),
)
LATENCY = Family(
    "repro_request_latency_seconds", "histogram",
    "Request latency by endpoint and device (probes excluded).",
    labels=("endpoint", "device"), buckets=LATENCY_BUCKETS,
    telemetry=("service.latency_seconds",),
    rollup=("service/mean_latency_ms:mean_ms",),
)
LATENCY_WINDOW_MS = Family(
    "repro_request_latency_window_ms", "gauge",
    "Exact sliding-window latency quantiles, milliseconds.",
    labels=("endpoint", "quantile"), collect=_window_quantiles,
)
QUEUE_WAIT = Family(
    "repro_queue_wait_seconds", "histogram",
    "Pair-job time spent in the admission queue.",
    buckets=LATENCY_BUCKETS, telemetry=("service.phase.queue_wait_seconds",),
    rollup=("trace/mean_queue_wait_ms:mean_ms",),
)
BATCH_SIZE = Family(
    "repro_batch_size", "histogram", "Pair jobs per dispatched micro-batch.",
    buckets=BATCH_BUCKETS, telemetry=("service.batch_size",),
    rollup=("service/max_batch_size:max",),
)
BATCH_REQUESTS = Family(
    "repro_batch_requests", "histogram",
    "Distinct requests coalesced per micro-batch.",
    buckets=BATCH_BUCKETS, telemetry=("service.batch_requests",),
)
BATCHES = Family(
    "repro_batches_total", "counter", "Micro-batches dispatched.",
    telemetry=("service.batches",), stats=("batching.batches",),
    rollup=("service/batches",),
)
BATCHED_JOBS = Family(
    "repro_batched_jobs_total", "counter", "Pair jobs carried by batches.",
    telemetry=("service.batched_jobs",), stats=("batching.jobs",),
    rollup=("service/batched_jobs",),
)
EXPIRED_JOBS = Family(
    "repro_expired_jobs_total", "counter", "Jobs expired in the queue.",
    telemetry=("service.expired_jobs",), stats=("batching.expired_jobs",),
)
ENROLL_REJECTED = Family(
    "repro_enroll_rejected_total", "counter",
    "Quality-gate enrollment refusals.",
    telemetry=("service.enroll.rejected",), stats=("enroll_rejected",),
    rollup=("service/enroll_rejected",),
)
OVERLOADS = Family(
    "repro_overloads_total", "counter", "Admissions refused on a full queue.",
    telemetry=("service.overload",), stats=("overloads",),
    rollup=("service/overloads",),
)
DEADLINE_EXCEEDED = Family(
    "repro_deadline_exceeded_total", "counter", "Requests past their deadline.",
    telemetry=("service.deadline_exceeded",), stats=("deadline_exceeded",),
    rollup=("service/deadline_exceeded",),
)
SLOW_REQUESTS = Family(
    "repro_slow_requests_total", "counter",
    "Requests over the REPRO_SERVE_SLOW_MS threshold.",
    telemetry=("service.slow_requests",), stats=("slow_requests",),
    rollup=("trace/slow_requests",),
)
DECISIONS = Family(
    "repro_decisions_total", "counter", "Verification decisions, by outcome.",
    labels=("decision",), values=("accepted", "rejected"),
    telemetry=("service.{decision}",), stats=("decisions",),
    rollup=("service/{decision}",),
)
BATCH_LAST_ID = Family(
    "repro_batch_last_id", "gauge",
    "Id of the most recently dispatched micro-batch.",
    collect=lambda s: s["stats"].last_batch_id,
    stats=("batching.last_batch_id",),
)
SEARCHES = Family(
    "repro_identify_searches_total", "counter",
    "1:N identify searches, by search mode.",
    labels=("mode",), telemetry=("index.recall_mode.{mode}",),
    stats=("identify.modes",), rollup=("service/index/searches/{mode}",),
)
CANDIDATES = Family(
    "repro_identify_candidates_total", "counter",
    "Gallery templates scored by the exact matcher during identify.",
    telemetry=("index.candidates",), stats=("identify.candidates_scored",),
    rollup=("service/index/candidates_scored",),
)
PREFILTER = Family(
    "repro_identify_prefilter_seconds", "histogram",
    "Wall time of the two-stage descriptor prefilter pass.",
    buckets=PREFILTER_BUCKETS, telemetry=("index.prefilter_seconds",),
    rollup=("service/index/prefilter_searches:count",
            "service/index/prefilter_seconds_total:sum"),
)
POOL_SIZE = Family(
    "repro_worker_pool_size", "gauge",
    "Sharded serving pool width, configured and currently alive.",
    labels=("state",), values=("configured", "alive"),
    telemetry=("service.worker.{state}",),
    collect=_source("workers", convert=lambda pool: {
        "configured": pool["configured"], "alive": pool["alive"]}),
    stats=("workers.{state}",), rollup=("service/workers/{state}:int",),
)
WORKER_DEGRADED = Family(
    "repro_worker_degraded", "gauge",
    "1 when the pool fell back to in-process serving.",
    telemetry=("service.worker.degraded",),
    collect=_source("workers", "degraded"), stats=("workers.degraded",),
    rollup=("service/workers/degraded:flag",),
)
WORKER_DISPATCHES = Family(
    "repro_worker_dispatches_total", "counter",
    "RPCs dispatched to each sharded worker.",
    labels=("worker",), telemetry=("service.worker.dispatches",),
    stats=("workers.dispatches",), rollup=("service/workers/dispatches",),
)
WORKER_JOBS = Family(
    "repro_worker_dispatched_jobs_total", "counter",
    "Pair jobs carried by dispatches to each sharded worker.",
    labels=("worker",), telemetry=("service.worker.dispatched_jobs",),
    stats=("workers.dispatched_jobs",),
    rollup=("service/workers/dispatched_jobs",),
)
WORKER_RESPAWNS = Family(
    "repro_worker_respawns_total", "counter",
    "Crash-or-stall respawns of each sharded worker.",
    labels=("worker",), telemetry=("service.worker.respawns",),
    stats=("workers.respawns",), rollup=("service/workers/respawns",),
)
WORKER_SHARD_SIZE = Family(
    "repro_worker_shard_size", "gauge",
    "Gallery records owned by each sharded worker.",
    labels=("worker",), telemetry=("service.worker.shard_size.{worker}",),
    stats=("workers.shard_sizes",),
)
QUEUE_DEPTH = Family(
    "repro_queue_depth", "gauge", "Pair jobs currently awaiting a batch slot.",
    collect=_source("queue_depth"),
)
GALLERY_ENROLLED = Family(
    "repro_gallery_enrolled", "gauge", "Enrolled templates per device shard.",
    labels=("device",), collect=_source("gallery_devices"),
)
CORRUPT_DROPPED = Family(
    "repro_gallery_corrupt_dropped_total", "counter",
    "Corrupt gallery records dropped at the last reload.",
    telemetry=("gallery.corrupt_dropped",), collect=_source("corrupt_dropped"),
    rollup=("service/wal/corrupt_dropped",),
)
WAL_FAMILIES = (
    _wal("repro_wal_last_lsn", "gauge",
         "Sequence number of the newest logged operation.", "last_lsn"),
    _wal("repro_wal_checkpoint_lsn", "gauge",
         "Operations at or below this LSN are durably applied.",
         "checkpoint_lsn"),
    _wal("repro_wal_segments", "gauge", "Retained write-ahead log segments.",
         "segments"),
    _wal("repro_wal_size_bytes", "gauge", "On-disk bytes across WAL segments.",
         "size_bytes"),
    _wal("repro_wal_appends_total", "counter", "Records appended to the WAL.",
         "appends", "wal.appends"),
    _wal("repro_wal_bytes_total", "counter",
         "Frame bytes appended to the WAL.", "bytes", "wal.bytes"),
    _wal("repro_wal_fsyncs_total", "counter",
         "fsync calls issued by the WAL.", "fsyncs"),
    _wal("repro_wal_rotations_total", "counter",
         "Segment seals (rotations).", "rotations", "wal.rotations"),
    _wal("repro_wal_checkpoints_total", "counter", "Checkpoints written.",
         "checkpoints", "wal.checkpoints"),
    _wal("repro_wal_segments_removed_total", "counter",
         "Sealed segments compacted away after checkpoints.",
         "segments_removed", "wal.segments_removed"),
    _wal("repro_wal_replayed_total", "counter",
         "Records replayed from the WAL at startup.", "replayed",
         "wal.replayed"),
    _wal("repro_wal_torn_truncated_total", "counter",
         "Torn WAL tails truncated during replay.", "torn_truncated",
         "wal.torn_truncated"),
)
WAL_REAPPLIED = Family(
    None, "counter", "Gallery records re-applied from the WAL at load.",
    telemetry=("gallery.wal_reapplied",), rollup=("service/wal/reapplied",),
)
REPLICATION_ROLE = Family(
    "repro_replication_role", "gauge", "1 for the role this server is playing.",
    labels=("role",),
    collect=_source("replication", convert=lambda r: {r["role"]: 1}),
)
APPLIED_LSN = Family(
    "repro_replication_applied_lsn", "gauge",
    "Newest WAL operation applied by this server.",
    collect=_source("replication", "applied_lsn"),
)
LAG_RECORDS = Family(
    "repro_replication_lag_records", "gauge",
    "WAL records written but not yet applied here.",
    collect=_source("replication", "lag_records"),
)
REPLICATION_BROKEN = Family(
    "repro_replication_broken", "gauge",
    "1 when follower replication stopped on an error.",
    collect=_source("replication", "error", lambda e: 1 if e else 0),
)
REBOOTSTRAPS = Family(
    "repro_replication_rebootstraps_total", "counter",
    "Follower re-bootstraps after falling past WAL retention.",
    telemetry=("replication.rebootstraps",),
    collect=_source("replication", "rebootstraps"),
    rollup=("service/replication_rebootstraps",),
)
AUTH_ENABLED = Family(
    "repro_auth_enabled", "gauge", "1 when keyed authentication is enforced.",
    collect=_source("auth_enabled", convert=int),
)
AUTH_REQUESTS = Family(
    "repro_auth_requests_total", "counter",
    "Authentication decisions on a keyed server, by outcome.",
    labels=("outcome",), values=AUTH_OUTCOMES,
    telemetry=("service.auth.{outcome}",), stats=("auth.outcomes",),
    rollup=("service/auth/{outcome}",),
)
RATE_LIMITED = Family(
    "repro_rate_limited_total", "counter",
    "Requests refused by the rate limiter, by principal.",
    labels=("principal",), total=True, telemetry=("service.rate_limited",),
    stats=("auth.rate_limited", "auth.rate_limited_total"),
    rollup=("service/auth/rate_limited",),
)
LIMIT_BUCKETS = Family(
    "repro_limit_buckets", "gauge",
    "Live (principal, class) token buckets in the LRU.",
    collect=_source("limits", "bucket_occupancy"),
)
TRACES = Family(
    None, "counter", "Requests served with a trace.",
    telemetry=("service.traces",), rollup=("trace/requests_traced",),
)
ENQUEUE_DEPTH = Family(
    None, "gauge", "Admission-queue depth at enqueue time.",
    telemetry=("service.queue_depth",),
)
BATCH_WAIT = Family(
    None, "histogram", "Claim-to-executor wait of each micro-batch.",
    telemetry=("service.phase.batch_wait_seconds",),
    rollup=("trace/mean_batch_wait_ms:mean_ms",),
)
MATCH_TIME = Family(
    None, "histogram", "Matcher kernel time of each micro-batch.",
    telemetry=("service.phase.match_seconds",),
    rollup=("trace/mean_match_ms:mean_ms",),
)

#: Every serving metric, in exposition order.
FAMILIES: Tuple[Family, ...] = (
    UPTIME, REQUESTS, RESPONSES, LATENCY, LATENCY_WINDOW_MS, QUEUE_WAIT,
    BATCH_SIZE, BATCH_REQUESTS, BATCHES, BATCHED_JOBS, EXPIRED_JOBS,
    ENROLL_REJECTED, OVERLOADS, DEADLINE_EXCEEDED, SLOW_REQUESTS, DECISIONS,
    BATCH_LAST_ID, SEARCHES, CANDIDATES, PREFILTER, POOL_SIZE,
    WORKER_DEGRADED, WORKER_DISPATCHES, WORKER_JOBS, WORKER_RESPAWNS,
    WORKER_SHARD_SIZE, QUEUE_DEPTH, GALLERY_ENROLLED, CORRUPT_DROPPED,
    *WAL_FAMILIES, WAL_REAPPLIED, REPLICATION_ROLE, APPLIED_LSN, LAG_RECORDS,
    REPLICATION_BROKEN, REBOOTSTRAPS, AUTH_ENABLED, AUTH_REQUESTS,
    RATE_LIMITED, LIMIT_BUCKETS, TRACES, ENQUEUE_DEPTH, BATCH_WAIT,
    MATCH_TIME,
)

#: Registry method (and recorder method) that records one event per kind.
_WRITERS = {"counter": "count", "gauge": "gauge", "histogram": "observe"}

_Series = Dict[Tuple[Tuple[str, str], ...], object]


def _empty(family: Family):
    if family.kind != "histogram":
        return 0
    return {"count": 0, "sum": 0.0, "buckets": [0] * (len(family.buckets) + 1)}


def _as_series(family: Family, value) -> _Series:
    """A collected value as ``{labels: value}``."""
    if not isinstance(value, dict):
        return {(): value}
    return {
        tuple(zip(family.labels, key if isinstance(key, tuple) else (key,))):
        item
        for key, item in value.items()
    }


def _put(tree: dict, path: str, value) -> None:
    *parents, leaf = path.split(".")
    for key in parents:
        tree = tree.setdefault(key, {})
    tree[leaf] = value


def _place(payload: dict, family: Family, series: _Series) -> None:
    """Lay one family's series into the ``/stats`` payload."""
    path = family.stats[0]
    if "{" in path:
        for labels, value in series.items():
            _put(payload, path.format(**dict(labels)), value)
    elif family.labels:
        _put(payload, path, {
            labels[0][1]: value for labels, value in sorted(series.items())
        })
    else:
        _put(payload, path, series.get((), 0))
    if len(family.stats) > 1:
        _put(payload, family.stats[1], sum(series.values()))


def _quantiles(values: Deque[float]) -> Optional[Dict[str, float]]:
    """p50/p95/p99/max of a latency window, in milliseconds."""
    if not values:
        return None
    arr = np.asarray(values, dtype=np.float64) * 1000.0
    p50, p95, p99 = np.percentile(arr, (50.0, 95.0, 99.0))
    return {
        "count": int(arr.size),
        "p50_ms": round(float(p50), 3),
        "p95_ms": round(float(p95), 3),
        "p99_ms": round(float(p99), 3),
        "max_ms": round(float(arr.max()), 3),
    }


class ServiceStats:
    """Live serving metrics for one server process.

    Thread-safe: the serving event loop, the matcher executor thread,
    and any embedding code can record concurrently.  The telemetry
    mirror is a no-op until telemetry is enabled.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.last_batch_id = 0
        self.registry = MetricsRegistry(family_buckets={
            f.name: f.buckets for f in FAMILIES if f.buckets
        })
        for family in FAMILIES:
            if family.collect is None and family.name is not None:
                for value in family.values:
                    self.registry.count(
                        family.name, 0, ((family.labels[0], value),)
                    )
        self._latencies: Dict[str, Deque[float]] = {
            name: deque(maxlen=LATENCY_WINDOW) for name in ENDPOINTS
        }
        self._batch_sizes: Deque[int] = deque(maxlen=LATENCY_WINDOW)

    # ------------------------------------------------------------------
    # Event sinks
    # ------------------------------------------------------------------
    def record(self, family: Family, value: float = 1, **labels) -> None:
        """Record one event into a recorded ``family``.

        Writes the family's series here and, when telemetry is enabled,
        each recorder name the family declares.
        """
        if family.name is not None and (
            not family.values or labels[family.labels[0]] in family.values
        ):
            key = tuple(
                (label, str(labels[label])) for label in family.labels
                if labels.get(label) not in (None, "")
            )
            getattr(self.registry, _WRITERS[family.kind])(
                family.name, value, key
            )
        recorder = get_recorder()
        if recorder.active:
            write = getattr(recorder, _WRITERS[family.kind])
            for template in family.telemetry:
                write(template.format(**labels), value)

    def record_request(
        self,
        endpoint: str,
        seconds: float,
        status: int,
        device: Optional[str] = None,
        probe: Optional[bool] = None,
    ) -> None:
        """Tally one finished HTTP request.

        ``probe`` marks monitoring traffic excluded from the latency
        windows; when ``None`` it is inferred from the endpoint name.
        """
        if probe is None:
            probe = endpoint in PROBE_ENDPOINTS
        self.record(REQUESTS, endpoint=endpoint)
        self.record(RESPONSES, status=status)
        if not probe:
            self.record(LATENCY, seconds, endpoint=endpoint, device=device)
            if endpoint in self._latencies:
                with self._lock:
                    self._latencies[endpoint].append(seconds)

    def record_decision(self, accepted: bool) -> None:
        """Tally one verification decision."""
        self.record(DECISIONS, decision="accepted" if accepted else "rejected")

    def record_enroll_rejected(self) -> None:
        """Tally one quality-gated enrollment rejection."""
        self.record(ENROLL_REJECTED)

    def record_slow(self) -> None:
        """Tally one request over the ``REPRO_SERVE_SLOW_MS`` threshold."""
        self.record(SLOW_REQUESTS)

    def record_queue_wait(self, seconds: float) -> None:
        """Tally one pair job's time in the admission queue."""
        self.record(QUEUE_WAIT, seconds)

    def record_batch(
        self,
        size: int,
        expired: int = 0,
        requests: int = 0,
        batch_id: Optional[int] = None,
    ) -> None:
        """Tally one dispatched micro-batch of ``size`` comparisons.

        ``requests`` is how many distinct in-flight requests the batch
        coalesced (a verify contributes one job, an identify several).
        A batch whose jobs all expired in the queue dispatches nothing;
        its ``size`` arrives as 0 and only the expiry tally moves.
        """
        if size:
            self.record(BATCHES)
            self.record(BATCHED_JOBS, size)
            self.record(BATCH_SIZE, float(size))
            if requests:
                self.record(BATCH_REQUESTS, float(requests))
            with self._lock:
                self._batch_sizes.append(size)
        if expired:
            self.record(EXPIRED_JOBS, expired)
        if batch_id is not None:
            with self._lock:
                self.last_batch_id = max(self.last_batch_id, batch_id)

    def publish(self, **sources) -> None:
        """Sample the collected gauges that name a recorder metric.

        The server calls this on shutdown so the run manifest sees the
        final values of state other components own (the pool width).
        """
        recorder = get_recorder()
        if not recorder.active:
            return
        for family, series in self.read(sources, _PUBLISHED):
            for labels, value in series.items():
                for template in family.telemetry:
                    recorder.gauge(template.format(**dict(labels)), value)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(
        self, sources: Optional[dict] = None,
        families: Iterable[Family] = FAMILIES,
    ) -> List[Tuple[Family, _Series]]:
        """The current series of each Prometheus family in ``families``.

        Recorded families read this store (an unlabeled one reads zero
        before its first event); collected ones call their collector on
        ``sources`` and are left out when it returns ``None``.
        """
        sources = dict(sources or {}, stats=self)
        recorded = self.registry.series()
        out = []
        for family in families:
            if family.name is None:
                continue
            if family.collect is None:
                series = recorded.get(family.name, {})
                if not series and not family.labels:
                    series = {(): _empty(family)}
            else:
                value = family.collect(sources)
                if value is None:
                    continue
                series = _as_series(family, value)
            out.append((family, series))
        return out

    @property
    def batches(self) -> int:
        """Micro-batches dispatched so far."""
        return self.registry.counter_value(BATCHES.name)

    @property
    def expired_jobs(self) -> int:
        """Pair jobs that expired in the admission queue so far."""
        return self.registry.counter_value(EXPIRED_JOBS.name)

    def max_batch_size(self) -> int:
        """Largest micro-batch observed in the window (0 before any)."""
        with self._lock:
            return max(self._batch_sizes) if self._batch_sizes else 0

    def latency_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-endpoint window quantiles (endpoints never hit are absent)."""
        with self._lock:
            windows = {
                endpoint: deque(window)
                for endpoint, window in self._latencies.items()
            }
        out: Dict[str, Dict[str, float]] = {}
        for endpoint, window in windows.items():
            quantiles = _quantiles(window)
            if quantiles is not None:
                out[endpoint] = quantiles
        return out

    def labeled_latency(self) -> Dict[Tuple[str, str], dict]:
        """Per-(endpoint, device) latency histograms."""
        series = self.registry.series().get(LATENCY.name, {})
        return {
            (dict(labels)["endpoint"], dict(labels).get("device", "")): hist
            for labels, hist in sorted(series.items())
        }

    def queue_wait_snapshot(self) -> dict:
        """The admission-queue wait histogram."""
        return self.registry.series().get(QUEUE_WAIT.name, {}).get(
            (), _empty(QUEUE_WAIT)
        )

    def batch_snapshot(self) -> dict:
        """The ``/stats`` micro-batch block: totals plus a unit-binned
        histogram of the window's batch sizes."""
        return self.snapshot()["batching"]

    def snapshot(self, sources: Optional[dict] = None) -> dict:
        """The ``/stats`` payload (JSON-able): every family with a
        ``stats`` path, the latency windows and the batch distribution.
        ``sources`` feeds the collected families, as for ``/metrics``."""
        payload: dict = {}
        for family, series in self.read(sources, _IN_STATS):
            _place(payload, family, series)
        payload["latency"] = self.latency_snapshot()
        batching = payload["batching"]
        with self._lock:
            sizes = list(self._batch_sizes)
        batches, jobs = batching["batches"], batching["jobs"]
        batching["mean_size"] = round(jobs / batches, 3) if batches else None
        batching["max_size"] = max(sizes) if sizes else 0
        if sizes:
            hist = score_histogram(sizes, bin_width=1.0, label="batch_size")
            batching["histogram"] = {
                "edges": [float(e) for e in hist.edges],
                "counts": [int(c) for c in hist.counts],
            }
        return payload


_IN_STATS = tuple(f for f in FAMILIES if f.stats)
_PUBLISHED = tuple(
    f for f in FAMILIES if f.collect and f.kind == "gauge" and f.telemetry
)


__all__ = [
    "ServiceStats",
    "Family",
    "FAMILIES",
    "AUTH_OUTCOMES",
    "LATENCY_WINDOW",
    "LATENCY_BUCKETS",
    "BATCH_BUCKETS",
    "PREFILTER_BUCKETS",
    "ENDPOINTS",
    "PROBE_ENDPOINTS",
]
