"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study --seed 1 --seconds 25 --trace 0

Workloads: ``study`` (one cold study, repeated), ``serve_mixed`` (a keyed
``repro serve`` under an open-loop verify/identify/enroll mix) and
``identify_scale`` (two-stage identify over a synthetic gallery).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer split instead (telemetry, request log and
manifest on, plus the matcher-kernel probe).  Human-readable lines go
first; the last line of standard output is the JSON result.  See
``perfbench/README.md`` for what every metric means.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from params import params_for  # noqa: E402

WORKLOADS = ("study", "serve_mixed", "identify_scale")

#: End-to-end metrics (``--trace 0``), reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "goodput_per_s": "1/s",
    "hit_rate": "ratio",
}

#: Per-layer metrics (``--trace 1``); a layer a workload never enters
#: reads 0.
PER_LAYER = {
    "datasets.build_collection_s": "s",
    "datasets.impressions": "count",
    "datasets.attempts_per_impression": "ratio",
    "core.scores.DMG_s": "s",
    "core.scores.DDMG_s": "s",
    "core.scores.DMI_s": "s",
    "core.scores.DDMI_s": "s",
    "matcher.comparisons": "count",
    "runtime.parallel.batches": "count",
    "runtime.parallel.busy_s": "s",
    "runtime.parallel.efficiency": "ratio",
    "matcher.descriptors_us": "us",
    "matcher.similarity_us": "us",
    "matcher.candidates_us": "us",
    "matcher.alignment_us": "us",
    "matcher.pairing_us": "us",
    "matcher.score_us": "us",
    "matcher.candidates_per_comparison": "count",
    "matcher.transforms_per_comparison": "count",
    "core.analysis_s": "s",
    "core.kendall_s": "s",
    "core.fnmr_s": "s",
    "core.quality_s": "s",
    "synthesis.demographics_s": "s",
    "study.accounted_ratio": "ratio",
    "serve.verify_p50_ms": "ms",
    "serve.verify_tail_ms": "ms",
    "serve.identify_p50_ms": "ms",
    "serve.identify_tail_ms": "ms",
    "serve.enroll_p50_ms": "ms",
    "serve.enroll_tail_ms": "ms",
    "service.server.auth_ms": "ms",
    "service.server.limits_ms": "ms",
    "service.server.parse_ms": "ms",
    "service.server.respond_ms": "ms",
    "service.server.unattributed_ms": "ms",
    "service.batching.queue_wait_ms": "ms",
    "service.batching.batch_wait_ms": "ms",
    "service.batching.batch_size": "count",
    "service.batching.collapsed_ratio": "ratio",
    "service.matcher.match_ms": "ms",
    "service.gallery.read_ms": "ms",
    "service.gallery.enroll_ms": "ms",
    "service.gallery.load_s": "s",
    "runtime.wal.fsyncs_per_enroll": "count",
    "runtime.wal.bytes_per_enroll": "bytes",
    "core.prefilter.ms": "ms",
    "service.accounted_ratio": "ratio",
    "loadgen.late_ms": "ms",
    "loadgen.conn_wait_ms": "ms",
    "trace.overhead_pct": "%",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = harness.repo_root()
    harness.require_program(root)
    params = params_for(args.workload, args.smoke)
    trace = bool(args.trace)
    work = harness.workdir(root, args.workload)
    try:
        if args.workload == "study":
            import study_bench as bench
        else:
            import serve_bench as bench
        result = bench.run(
            root, work, args.workload, args.seed, params, trace,
            args.seconds, PROCESS_STARTED,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    catalogue = PER_LAYER if trace else END_TO_END
    measured = result["metrics"]
    unknown = sorted(set(measured) - set(catalogue))
    if unknown:
        raise RuntimeError(f"metrics outside the catalogue: {unknown}")
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in catalogue.items()
    }
    record = harness.stamp(root, args.workload, args.seed, params, trace)
    record["details"] = result.get("details", {})
    print("# " + json.dumps(record, sort_keys=True))
    for failure in result["failures"]:
        print(f"# check failed: {failure}")
    if not result["valid"]:
        print(f"# invalid run: {result.get('invalid_reason', '')}")
    for name, entry in metrics.items():
        print(f"{name:<40} {entry['value']:>16.6f} {entry['unit']}")
    correct = result["failed"] == 0 and result["valid"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


def run_and_reap(argv=None) -> int:
    """:func:`main`, then wait for every process the run started, on every path out."""
    harness.adopt_orphans()
    try:
        return main(argv)
    finally:
        harness.reap_children()


if __name__ == "__main__":
    sys.exit(run_and_reap())
