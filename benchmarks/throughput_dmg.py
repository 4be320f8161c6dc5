"""Measure DMG scoring throughput and record it in benchmarks/output/.

Usage::

    PYTHONPATH=src python benchmarks/throughput_dmg.py \
        --label "PR-2 batched engine" --out dmg_throughput_pr2_batched.json

Mirrors the PR-1 baseline record
(``benchmarks/output/dmg_throughput_pr1_baseline.json``): same
population (80 subjects, default seed), same scenario (DMG), sequential
execution — so jobs/second across the two files is an apples-to-apples
engine comparison.  The mean score is recorded as the parity check; it
must not move between engines.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from _bench_common import OUTPUT_DIR
from repro.api import BioEngineMatcher, StudyConfig, build_collection
from repro.core.scores import enumerate_dmg_jobs, run_jobs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--subjects", type=int, default=80)
    parser.add_argument("--label", default="run_jobs, sequential")
    parser.add_argument("--out", default="dmg_throughput.json")
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="scoring passes; the best (least-interrupted) one is kept",
    )
    args = parser.parse_args()

    config = StudyConfig(n_subjects=args.subjects)
    start = time.perf_counter()
    collection = build_collection(config)
    collection_seconds = time.perf_counter() - start

    jobs = enumerate_dmg_jobs(args.subjects)
    matcher = BioEngineMatcher()
    best = float("inf")
    mean_score = None
    for _ in range(args.repeats):
        start = time.perf_counter()
        scores = run_jobs(jobs, collection, matcher, "right_index", "DMG")
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        mean_score = float(scores.scores.mean())

    record = {
        "label": args.label,
        "n_subjects": args.subjects,
        "scenario": "DMG",
        "jobs": len(jobs),
        "collection_seconds": round(collection_seconds, 3),
        "score_seconds": round(best, 3),
        "jobs_per_second": round(len(jobs) / best, 1),
        "mean_score": mean_score,
    }
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    out_path = OUTPUT_DIR / args.out
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"written to {out_path}")


if __name__ == "__main__":
    main()
