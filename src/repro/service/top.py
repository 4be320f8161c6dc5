"""`repro top`: a live terminal dashboard for one running server.

Polls ``GET /metrics`` — run through the strict exposition parser, so
every refresh doubles as a format check — and reads each number by its
declared family (:data:`repro.service.stats.FAMILIES`): cumulative
counters, the exact window quantiles and the live gauges.  It renders
per-endpoint rates *between* consecutive samples: QPS, window p95,
error rate, and the interval's mean micro-batch size, plus cumulative
``denied`` (401/403) and ``throttled`` (429) tallies on keyed servers.
Rendering is plain ANSI (cursor-home + clear-to-end), no curses, no
dependencies.

The arithmetic lives in pure functions (:func:`compute_deltas`,
:func:`render_frame`) so the tests can drive them with synthetic
samples; :func:`run_top` is the thin polling loop the CLI wraps.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

from . import stats
from .client import ServiceClient
from .metrics import parse_exposition, scraped

#: Endpoints shown as dashboard rows (probe traffic stays off the board).
DISPLAY_ENDPOINTS = tuple(
    e for e in stats.ENDPOINTS if e not in stats.PROBE_ENDPOINTS
)

_CLEAR = "\x1b[H\x1b[J"


def take_sample(client: ServiceClient) -> dict:
    """One observation of the server, normalized for delta arithmetic."""
    families = parse_exposition(client.metrics())

    def read(family) -> dict:
        return scraped(families, family)

    def count(family) -> int:
        return int(read(family).get((), 0))

    served = read(stats.REQUESTS)
    requests = {e: served.get((e,), 0.0) for e in stats.ENDPOINTS}
    statuses = {int(s): n for (s,), n in read(stats.RESPONSES).items()}
    latency: dict = {}
    for (endpoint, quantile), value in read(stats.LATENCY_WINDOW_MS).items():
        latency.setdefault(endpoint, {})[f"{quantile}_ms"] = value
    pool = read(stats.POOL_SIZE)
    return {
        "time": time.monotonic(),
        "requests": requests,
        "total": float(sum(requests.values())),
        "errors": float(sum(n for s, n in statuses.items() if s >= 400)),
        "latency": latency,
        "batches": float(count(stats.BATCHES)),
        "jobs": float(count(stats.BATCHED_JOBS)),
        "queued_jobs": count(stats.QUEUE_DEPTH),
        "uptime_seconds": read(stats.UPTIME).get((), 0.0),
        "enrolled": int(sum(read(stats.GALLERY_ENROLLED).values())),
        "overloads": count(stats.OVERLOADS),
        "deadline_exceeded": count(stats.DEADLINE_EXCEEDED),
        "slow_requests": count(stats.SLOW_REQUESTS),
        "denied": float(statuses.get(401, 0) + statuses.get(403, 0)),
        "throttled": float(statuses.get(429, 0)),
        "auth_enabled": bool(count(stats.AUTH_ENABLED)),
        "workers_alive": int(pool.get(("alive",), 0)),
        "workers_configured": int(pool.get(("configured",), 0)),
        "role": next(iter(read(stats.REPLICATION_ROLE)), ("primary",))[0],
        "applied_lsn": count(stats.APPLIED_LSN),
        "lag_records": count(stats.LAG_RECORDS),
    }


def compute_deltas(prev: Optional[dict], cur: dict) -> dict:
    """Interval rates between two samples (zeros on the first frame)."""
    if prev is None:
        dt = 0.0
    else:
        dt = max(1e-9, cur["time"] - prev["time"])

    def rate(key: str, sub: Optional[str] = None) -> float:
        if prev is None:
            return 0.0
        if sub is None:
            return max(0.0, (cur[key] - prev[key]) / dt)
        return max(0.0, (cur[key].get(sub, 0.0) - prev[key].get(sub, 0.0)) / dt)

    per_endpoint = {}
    for endpoint in DISPLAY_ENDPOINTS:
        window = cur["latency"].get(endpoint)
        per_endpoint[endpoint] = {
            "qps": rate("requests", endpoint),
            "p95_ms": window["p95_ms"] if window else None,
        }
    total_delta = 0.0 if prev is None else cur["total"] - prev["total"]
    error_delta = 0.0 if prev is None else cur["errors"] - prev["errors"]
    batch_delta = 0.0 if prev is None else cur["batches"] - prev["batches"]
    job_delta = 0.0 if prev is None else cur["jobs"] - prev["jobs"]
    return {
        "interval_s": dt,
        "endpoints": per_endpoint,
        "qps": rate("total"),
        "error_rate": (error_delta / total_delta) if total_delta > 0 else 0.0,
        "mean_batch_size": (job_delta / batch_delta) if batch_delta > 0 else 0.0,
    }


def _fmt(value, width: int, digits: int = 1) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:.{digits}f}".rjust(width)


def render_frame(sample: dict, deltas: dict, host: str, port: int) -> str:
    """One dashboard frame as plain text (no escape codes)."""
    lines = [
        f"repro top — {host}:{port}   "
        f"up {sample['uptime_seconds']:.0f}s   "
        f"enrolled {sample['enrolled']}   "
        f"queued {sample['queued_jobs']}   "
        f"workers {sample.get('workers_alive', 0)}"
        f"/{sample.get('workers_configured', 0)}   "
        f"{sample.get('role', 'primary')}"
        f" lsn {sample.get('applied_lsn', 0)}"
        f" lag {sample.get('lag_records', 0)}",
        f"interval {deltas['interval_s']:.1f}s   "
        f"qps {deltas['qps']:.1f}   "
        f"err {100.0 * deltas['error_rate']:.1f}%   "
        f"batch {deltas['mean_batch_size']:.1f}   "
        f"503 {sample['overloads']}   504 {sample['deadline_exceeded']}   "
        f"slow {sample['slow_requests']}   "
        f"denied {sample.get('denied', 0):.0f}   "
        f"throttled {sample.get('throttled', 0):.0f}",
        "",
        f"{'endpoint':<10}{'qps':>8}{'p95_ms':>10}",
    ]
    for endpoint in DISPLAY_ENDPOINTS:
        row = deltas["endpoints"][endpoint]
        lines.append(
            f"{endpoint:<10}"
            f"{_fmt(row['qps'], 8)}"
            f"{_fmt(row['p95_ms'], 10, 2)}"
        )
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    interval_s: float = 2.0,
    iterations: Optional[int] = None,
    out: Optional[TextIO] = None,
    clear: bool = True,
) -> int:
    """Poll and redraw until interrupted (or for ``iterations`` frames).

    Returns a process exit code: 0 on a clean exit (including Ctrl-C),
    1 when the server could not be reached at all.
    """
    stream = out if out is not None else sys.stdout
    prev: Optional[dict] = None
    frames = 0
    with ServiceClient(host, port) as client:
        try:
            while iterations is None or frames < iterations:
                cur = take_sample(client)
                frame = render_frame(cur, compute_deltas(prev, cur), host, port)
                if clear:
                    stream.write(_CLEAR)
                stream.write(frame + "\n")
                stream.flush()
                prev = cur
                frames += 1
                if iterations is not None and frames >= iterations:
                    break
                time.sleep(interval_s)
        except KeyboardInterrupt:
            return 0
        except Exception as exc:  # noqa: BLE001 - surface, don't trace back
            stream.write(f"repro top: {exc}\n")
            return 1
    return 0


__all__ = [
    "take_sample",
    "compute_deltas",
    "render_frame",
    "run_top",
    "DISPLAY_ENDPOINTS",
]
