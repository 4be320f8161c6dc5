"""Load-benchmark the online serving layer: micro-batching on vs off.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_load.py \
        --label "PR-5 serving layer" --out service_load_pr5.json

Closed-loop load generator: ``--clients`` concurrent client threads
replay a mixed workload against a live ``VerificationServer`` over real
HTTP.  The gallery holds 8 subjects enrolled on two capture devices
(D0 and D1 — the interoperability study's cross-device setting), and
each client loops through cycles of one same-device verify plus three
all-device identifies for its assigned identity.  Client identities are
drawn from a *hot population*: with ``--hot 4``, 16 clients replay
traffic for 4 frequent identities (4 clients per identity), the
duplicate-heavy regime where an admission queue sees the same
comparison arrive from several in-flight requests at once.

Each hot-population level runs twice — batching disabled (the control
arm: one scalar matcher call and one worker round trip per comparison)
and enabled (pair jobs coalesce into shared dispatches and duplicate
comparisons collapse to a single kernel invocation).  Both arms score
bit-identical results; the record carries throughput, client-observed
latency percentiles, the server's batch-size distribution, and the
matcher's collapse/invocation counters so the speedup is attributable.

Two overhead sweeps then price a feature against the same batched
workload without it: request tracing + the JSONL request log versus
``tracing=False`` and no log, and keyed auth (constant-time lookup on
every request) plus a live rate limiter (generous enough to never
refuse, so the arm measures the bucket machinery rather than
throttling) versus the open server.  Each runs its off and on arms
alternately ``--repeats`` times and reports each arm's median and IQR
throughput and the overhead of the medians against a 3% budget.  The
verdict (``within_budget``) is true or false only when the gap between
the medians is larger than both arms' IQRs; otherwise, and always
below 3 repeats, it is null and printed as "unresolved".

The worker-count sweep (``--worker-counts``, default ``1,2,4``)
measures horizontal sharding: an identify-only closed loop served by 1
(in-process control), 2, and 4 sharded worker processes, on a 16-entry
and a 64-entry gallery.  Every count runs ``--repeats`` times per
gallery, alternating which count goes first, and the record reports
the median and IQR per count.  Counts above ``os.cpu_count()`` are
skipped — running 4 matcher processes on fewer cores measures
contention, not sharding — and the record says so (``skipped_counts``
/ ``skip_reason``) with an honest ``cpus`` field, leaving ``speedup``
null when the top count could not run.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from _bench_common import OUTPUT_DIR
from repro.api import BioEngineMatcher, StudyConfig, build_collection
from repro.runtime.telemetry import disable_telemetry, enable_telemetry
from repro.service import (
    ApiKeyAuthenticator,
    BatchingConfig,
    GalleryIndex,
    LimitsConfig,
    RateLimiter,
    RequestLog,
    ServiceClient,
    ServiceRunner,
    VerificationServer,
    generate_key,
    write_keyfile,
)

DEVICES = ("D0", "D1")
GALLERY_SUBJECTS = 8
IDENTIFIES_PER_CYCLE = 3


def _percentiles(samples_ms):
    arr = np.asarray(samples_ms, dtype=np.float64)
    return {
        "p50_ms": round(float(np.percentile(arr, 50)), 2),
        "p95_ms": round(float(np.percentile(arr, 95)), 2),
        "p99_ms": round(float(np.percentile(arr, 99)), 2),
        "max_ms": round(float(arr.max()), 2),
        "count": int(arr.size),
    }


def _run_arm(
    collection, matcher, *, enabled, clients, cycles, hot,
    tracing=False, with_reqlog=False, with_auth=False,
):
    """One benchmark arm; returns its measurement record."""
    recorder = enable_telemetry()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            gallery = GalleryIndex(Path(tmp) / "gallery")
            batching = BatchingConfig(
                max_batch=512, queue_depth=4096, enabled=enabled
            )
            reqlog = (
                RequestLog(Path(tmp) / "reqlog.jsonl") if with_reqlog else None
            )
            api_key = None
            auth = False
            limits = None
            if with_auth:
                # Every request authenticates and passes a live token
                # bucket; the bucket is too roomy to ever refuse, so
                # the arm measures the machinery, not throttling.
                api_key = generate_key()
                keyfile = Path(tmp) / "keys.json"
                write_keyfile(keyfile, [{
                    "principal": "bench", "key": api_key,
                    "roles": ["read", "write", "admin"], "limits": {},
                }])
                auth = ApiKeyAuthenticator(keyfile)
                roomy = {c: 1e6 for c in ("read", "write", "admin")}
                limits = RateLimiter(
                    config=LimitsConfig(rates=roomy, bursts=roomy)
                )
            server = VerificationServer(
                gallery, matcher=matcher, port=0, batching=batching,
                tracing=tracing, reqlog=reqlog, auth=auth, limits=limits,
            )
            with ServiceRunner(server) as (host, port):
                with ServiceClient(host, port, api_key=api_key) as setup:
                    for sid in range(GALLERY_SUBJECTS):
                        for device in DEVICES:
                            template = collection.get(
                                sid, "right_index", device, 0
                            ).template
                            setup.enroll(f"subject-{sid}", template, device=device)
                probes = {
                    sid: collection.get(sid, "right_index", "D1", 1).template
                    for sid in range(hot)
                }

                def worker(wid):
                    sid = wid % hot
                    identity = f"subject-{sid}"
                    latencies = []
                    with ServiceClient(host, port, api_key=api_key) as client:
                        for _ in range(cycles):
                            start = time.perf_counter()
                            verdict = client.verify(
                                identity, probes[sid], device="D1"
                            )
                            latencies.append(time.perf_counter() - start)
                            assert verdict["decision"] == "accept", (
                                f"genuine {identity} rejected"
                            )
                            for _ in range(IDENTIFIES_PER_CYCLE):
                                start = time.perf_counter()
                                hits = client.identify(probes[sid], device=None)
                                latencies.append(time.perf_counter() - start)
                                top = hits["candidates"][0]["identity"]
                                assert top.split("/")[-1] == identity, (
                                    f"rank-1 miss: {top} for {identity}"
                                )
                    return latencies

                wall_start = time.perf_counter()
                with concurrent.futures.ThreadPoolExecutor(
                    max_workers=clients
                ) as pool:
                    per_client = list(pool.map(worker, range(clients)))
                wall = time.perf_counter() - wall_start
                with ServiceClient(host, port, api_key=api_key) as client:
                    snapshot = client.stats()
        latencies_ms = [1000.0 * s for worker in per_client for s in worker]
        counters = recorder.metrics.snapshot()["counters"]
        batching_stats = snapshot["batching"]
        return {
            "batching_enabled": enabled,
            "tracing_enabled": tracing,
            "reqlog_enabled": with_reqlog,
            "auth_enabled": with_auth,
            "requests": len(latencies_ms),
            "wall_seconds": round(wall, 3),
            "throughput_rps": round(len(latencies_ms) / wall, 1),
            "latency": _percentiles(latencies_ms),
            "batches": batching_stats["batches"],
            "mean_batch_size": batching_stats["mean_size"],
            "max_batch_size": batching_stats["max_size"],
            "batch_size_histogram": batching_stats["histogram"],
            "matcher_invocations": int(counters.get("matcher.invocations", 0)),
            "collapsed_comparisons": int(counters.get("matcher.collapsed", 0)),
        }
    finally:
        disable_telemetry()


#: Gallery sizes (subjects, each enrolled on both devices) of the worker
#: sweep: the load bench's 16-entry gallery, where a comparison is too
#: cheap for sharding to pay, and a 64-entry one, where it does.
WORKER_GALLERY_SUBJECTS = (GALLERY_SUBJECTS, 32)


def _worker_arm(collection, matcher, *, workers, subjects, clients, cycles):
    """One worker-count run: identify-only closed loop, both modes."""
    with tempfile.TemporaryDirectory() as tmp:
        gallery = GalleryIndex(Path(tmp) / "gallery")
        batching = BatchingConfig(max_batch=512, queue_depth=4096)
        server = VerificationServer(
            gallery, matcher=matcher, port=0, batching=batching,
            workers=workers,
        )
        with ServiceRunner(server) as (host, port):
            with ServiceClient(host, port) as setup:
                for sid in range(subjects):
                    for device in DEVICES:
                        template = collection.get(
                            sid, "right_index", device, 0
                        ).template
                        setup.enroll(f"subject-{sid}", template, device=device)
            probes = {
                sid: collection.get(sid, "right_index", "D1", 1).template
                for sid in range(GALLERY_SUBJECTS)
            }

            def worker(wid):
                sid = wid % GALLERY_SUBJECTS
                identity = f"subject-{sid}"
                count = 0
                with ServiceClient(host, port) as client:
                    for cycle in range(cycles):
                        mode = "two_stage" if cycle % 2 else "exact"
                        hits = client.identify(
                            probes[sid], device=None, mode=mode
                        )
                        count += 1
                        top = hits["candidates"][0]["identity"]
                        assert top.split("/")[-1] == identity, (
                            f"rank-1 miss: {top} for {identity}"
                        )
                return count

            wall_start = time.perf_counter()
            with concurrent.futures.ThreadPoolExecutor(
                max_workers=clients
            ) as pool:
                requests = sum(pool.map(worker, range(clients)))
            wall = time.perf_counter() - wall_start
            with ServiceClient(host, port) as client:
                snapshot = client.stats()
    return {
        "requests": requests,
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(requests / wall, 2),
        "worker_dispatches": sum(
            snapshot["workers"]["dispatches"].values()
        ),
        "respawns": sum(snapshot["workers"]["respawns"].values()),
    }


def _median_iqr(values):
    q1, median, q3 = np.percentile(np.asarray(values, dtype=np.float64),
                                   (25.0, 50.0, 75.0))
    return {"median": round(float(median), 2),
            "iqr": [round(float(q1), 2), round(float(q3), 2)]}


#: Acceptance target: identify throughput at 4 workers vs 1.
WORKER_SPEEDUP_TARGET = 2.5


def _worker_sweep(collection, matcher, *, clients, cycles, counts, repeats):
    """Sharded identify throughput across worker counts (1 = control).

    Each gallery size runs ``repeats`` rounds of every count; the order
    of the counts alternates between rounds so drift in host speed
    lands on both sides.  The record carries every run, the median and
    IQR per count, and how many rounds the top count won against the
    in-process control.  Counts above the core count are skipped rather
    than reported as a number that measures oversubscription.
    """
    cpus = os.cpu_count() or 1
    runnable = [c for c in counts if c <= cpus]
    skipped = [c for c in counts if c > cpus]
    top = max(runnable) if runnable else 0
    galleries = []
    for subjects in WORKER_GALLERY_SUBJECTS:
        runs = {count: [] for count in runnable}
        for round_index in range(repeats):
            order = runnable if round_index % 2 == 0 else runnable[::-1]
            for count in order:
                runs[count].append(_worker_arm(
                    collection, matcher, workers=count, subjects=subjects,
                    clients=clients, cycles=cycles,
                ))
        rps = {c: [r["throughput_rps"] for r in runs[c]] for c in runnable}
        entry = {
            "gallery_entries": subjects * len(DEVICES),
            "throughput_rps": {str(c): _median_iqr(rps[c]) for c in runnable},
            "runs": {str(c): runs[c] for c in runnable},
            "speedup": None,
            "top_wins": None,
        }
        if top > 1 and 1 in rps:
            entry["speedup"] = round(
                entry["throughput_rps"][str(top)]["median"]
                / entry["throughput_rps"]["1"]["median"], 2
            )
            entry["top_wins"] = sum(
                t > c for t, c in zip(rps[top], rps[1])
            )
        galleries.append(entry)
        for count in runnable:
            stats = entry["throughput_rps"][str(count)]
            print(
                f"{entry['gallery_entries']} entries, workers={count}: "
                f"median {stats['median']} identify/s "
                f"(IQR {stats['iqr'][0]}-{stats['iqr'][1]}, {repeats} runs)"
            )
    if skipped:
        print(
            f"worker counts {skipped} skipped: only {cpus} CPU(s) — "
            "sharding needs a core per worker to mean anything"
        )
    return {
        "counts_requested": counts,
        "cpus": cpus,
        "repeats": repeats,
        "skipped_counts": skipped,
        "skip_reason": (
            f"host has {cpus} CPU(s); counts above that would measure "
            "core contention, not sharding" if skipped else None
        ),
        "speedup_measured_at": top if top > 1 else None,
        "speedup_target": WORKER_SPEEDUP_TARGET,
        "galleries": galleries,
    }


#: Throughput-overhead budget of each priced feature, in percent.
OVERHEAD_BUDGET_PCT = 3.0


def _overhead(collection, matcher, *, feature, on_kwargs, clients, cycles,
              hot, repeats):
    """Price one feature: its off and on arms, alternately, ``repeats`` times.

    The side that runs first alternates between rounds, so drift in
    host speed lands on both arms.  ``within_budget`` is ``None`` unless
    the gap between the two median throughputs is larger than both
    arms' IQRs (never with fewer than 3 repeats, where an IQR means
    nothing).
    """
    runs = {"off": [], "on": []}
    for round_index in range(repeats):
        order = ("off", "on") if round_index % 2 == 0 else ("on", "off")
        for side in order:
            runs[side].append(_run_arm(
                collection, matcher, enabled=True, clients=clients,
                cycles=cycles, hot=hot,
                **(on_kwargs if side == "on" else {}),
            ))
    stats = {
        side: _median_iqr([r["throughput_rps"] for r in side_runs])
        for side, side_runs in runs.items()
    }
    off_rps, on_rps = stats["off"]["median"], stats["on"]["median"]
    overhead_pct = round(100.0 * (1.0 - on_rps / off_rps), 2)
    resolved = repeats >= 3 and all(
        abs(off_rps - on_rps) > q3 - q1
        for q1, q3 in (stats[side]["iqr"] for side in stats)
    )
    return {
        "hot_identities": hot,
        "repeats_per_arm": repeats,
        "throughput_rps": {
            f"{feature}_{side}": stats[side] for side in stats
        },
        "overhead_pct": overhead_pct,
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "within_budget": (
            overhead_pct <= OVERHEAD_BUDGET_PCT if resolved else None
        ),
        **{f"{feature}_{side}": side_runs for side, side_runs in runs.items()},
    }


#: How ``within_budget`` prints.
VERDICTS = {None: "unresolved", True: "within budget", False: "OVER budget"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--cycles", type=int, default=4)
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="runs per tracing/auth-overhead arm and per worker count "
             "in the worker sweep (median + IQR; overhead verdicts "
             "need at least 3)",
    )
    parser.add_argument(
        "--hot",
        type=lambda text: [int(v) for v in text.split(",")],
        default=[4, 8],
        help="hot-population sizes to sweep (first one is the headline)",
    )
    parser.add_argument(
        "--worker-counts",
        type=lambda text: [int(v) for v in text.split(",")],
        default=[1, 2, 4],
        help="sharded-pool sizes to sweep (counts above cpu_count skip)",
    )
    parser.add_argument("--label", default="online serving micro-batching")
    parser.add_argument("--out", default="service_load.json")
    args = parser.parse_args()

    config = StudyConfig(
        n_subjects=max(max(WORKER_GALLERY_SUBJECTS), max(args.hot))
    )
    collection = build_collection(config)
    matcher = BioEngineMatcher()

    sweep = []
    for hot in args.hot:
        arms = {}
        for enabled in (False, True):
            mode = "batched" if enabled else "unbatched"
            arms[mode] = _run_arm(
                collection,
                matcher,
                enabled=enabled,
                clients=args.clients,
                cycles=args.cycles,
                hot=hot,
            )
        speedup = round(
            arms["batched"]["throughput_rps"] / arms["unbatched"]["throughput_rps"],
            2,
        )
        sweep.append({"hot_identities": hot, "speedup": speedup, **arms})
        print(
            f"hot={hot}: unbatched {arms['unbatched']['throughput_rps']} req/s, "
            f"batched {arms['batched']['throughput_rps']} req/s ({speedup}x)"
        )

    worker_sweep = _worker_sweep(
        collection, matcher, clients=args.clients, cycles=args.cycles,
        counts=args.worker_counts, repeats=args.repeats,
    )

    overheads = {}
    for feature, label, on_kwargs in (
        ("tracing", "tracing", {"tracing": True, "with_reqlog": True}),
        ("auth", "auth+limits", {"with_auth": True}),
    ):
        overheads[feature] = _overhead(
            collection, matcher, feature=feature, on_kwargs=on_kwargs,
            clients=args.clients, cycles=args.cycles, hot=args.hot[0],
            repeats=args.repeats,
        )
        print(
            f"{label} overhead: {overheads[feature]['overhead_pct']}% "
            f"(budget {OVERHEAD_BUDGET_PCT}%, "
            f"{VERDICTS[overheads[feature]['within_budget']]})"
        )

    record = {
        "label": args.label,
        "clients": args.clients,
        "cycles_per_client": args.cycles,
        "workload": (
            f"per cycle: 1 verify (device D1) + {IDENTIFIES_PER_CYCLE} "
            f"all-device identifies; gallery {GALLERY_SUBJECTS} subjects x "
            f"{len(DEVICES)} devices"
        ),
        "cpus": os.cpu_count(),
        "headline_speedup": sweep[0]["speedup"],
        "sweep": sweep,
        "worker_sweep": worker_sweep,
        "tracing_overhead": overheads["tracing"],
        "auth_overhead": overheads["auth"],
    }
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    out_path = OUTPUT_DIR / args.out
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"written to {out_path}")


if __name__ == "__main__":
    main()
