"""Two-stage /identify at scale: descriptor prefilter recall vs speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_identify_index.py \
        --gallery-size 100000 --out identify_index_pr7.json

Synthesizes a ``--gallery-size`` gallery of random-but-plausible
templates: two capture-device views per finger, enrolled with gentle
capture noise (enrollment is NFIQ-gated in the serving layer), while
every probe takes the full cross-device re-capture perturbation — pose
change, placement jitter, 15% minutia dropout, spurious detections —
so the shortlist has to survive a genuine device change.  Measures the
two quantities the two-stage design trades against each other:

* **recall@K** — how often the exact matcher's true mate survives the
  descriptor top-K shortlist, over ``--recall-probes`` probes and a
  sweep of K.  The prefilter never touches scores, so recall is the
  *only* way two-stage can differ from exhaustive.
* **speedup** — wall-clock of a full two-stage identify (probe
  descriptor + vectorized top-K + K exact rescores) against the
  exhaustive oracle (one exact match per gallery entry).  Exhaustive at
  100k is ~2 minutes *per probe*, so the oracle arm times
  ``--oracle-probes`` probes and additionally asserts two-stage top-1
  agreement on each.

It also records the **footprint**: the bytes ``tracemalloc`` sees held
per gallery entry once the entries are built — the template under its
key, and the entry's row of an exactly sized prefilter index —
measured on the first ``FOOTPRINT_ENTRIES`` entries (fewer on a smaller
gallery) and projected to the full gallery.

The record lands in ``benchmarks/output/`` as JSON: the recall@K table,
both latencies, the speedup, the oracle-agreement count and the
footprint.
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from _bench_common import OUTPUT_DIR
from repro.api import BioEngineMatcher
from repro.core.identification import (
    DEFAULT_CANDIDATE_K,
    TwoStageIdentifier,
    rank_candidates,
)
from repro.core.prefilter import PrefilterIndex, descriptor_vector
from repro.matcher.types import template_from_arrays

K_SWEEP = (8, 16, 32, 64)

# Enrollment captures are NFIQ-gated by the serving layer, so gallery
# views carry gentle capture noise; probes take the full re-capture
# perturbation (the `_device_view` defaults).
ENROLL_NOISE = {"drop": 0.05, "jitter_px": 0.5, "spurious": 1}
#: Gallery entries the footprint is traced on (capped at the gallery size).
FOOTPRINT_ENTRIES = 4096


def _random_template(rng, n_min=25, n_max=60):
    n = int(rng.integers(n_min, n_max + 1))
    return template_from_arrays(
        positions_px=rng.uniform((30.0, 30.0), (270.0, 370.0), size=(n, 2)),
        angles=rng.uniform(0.0, 2.0 * np.pi, size=n),
        kinds=rng.choice((1, 2), size=n, p=(0.6, 0.4)),
        qualities=rng.integers(40, 100, size=n),
        width_px=300,
        height_px=400,
    )


def _device_view(template, rng, drop=0.15, jitter_px=1.5, spurious=3):
    """The same finger captured elsewhere: new pose, jitter, dropout."""
    positions = template.positions_px()
    angles = template.angles()
    kinds = template.kinds()
    qualities = template.qualities()

    theta = float(rng.uniform(-0.4, 0.4))
    rotation = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    center = positions.mean(axis=0)
    positions = (positions - center) @ rotation.T + center
    positions = positions + rng.uniform(-25.0, 25.0, size=2)
    positions = positions + rng.normal(0.0, jitter_px, size=positions.shape)
    angles = angles + theta

    keep = rng.random(len(positions)) > drop
    if keep.sum() < 8:
        keep[:] = True
    positions, angles = positions[keep], angles[keep]
    kinds, qualities = kinds[keep], qualities[keep]

    n_extra = int(rng.integers(0, spurious + 1))
    if n_extra:
        positions = np.vstack(
            [positions, rng.uniform((30.0, 30.0), (270.0, 370.0), (n_extra, 2))]
        )
        angles = np.concatenate([angles, rng.uniform(0.0, 2 * np.pi, n_extra)])
        kinds = np.concatenate([kinds, rng.choice((1, 2), n_extra)])
        qualities = np.concatenate([qualities, rng.integers(40, 100, n_extra)])

    return template_from_arrays(
        positions_px=positions,
        angles=angles,
        kinds=kinds,
        qualities=qualities,
        width_px=300,
        height_px=400,
    )


def _build_gallery(n_fingers, rng):
    """``n_fingers`` base templates, each enrolled from two devices.

    Enrollment views use ``ENROLL_NOISE`` (quality-gated capture);
    probes drawn later use the harsher ``_device_view`` defaults.
    """
    fingers = []
    index = PrefilterIndex()
    keys = []
    started = time.perf_counter()
    for i in range(n_fingers):
        finger = _random_template(rng)
        fingers.append(finger)
        for device in ("D0", "D1"):
            key = f"{device}/id-{i:06d}"
            index.add(
                key,
                descriptor_vector(_device_view(finger, rng, **ENROLL_NOISE)),
            )
            keys.append(key)
        if (i + 1) % 5000 == 0:
            elapsed = time.perf_counter() - started
            print(
                f"  built {2 * (i + 1):>7d}/{2 * n_fingers} gallery entries "
                f"({elapsed:.0f}s)",
                flush=True,
            )
    return fingers, index, keys


def _measure_recall(fingers, index, rng, n_probes):
    """Fraction of probes whose mate (either device view) survives top-K."""
    hits = {k: 0 for k in K_SWEEP}
    ranks = []
    probe_ids = rng.choice(len(fingers), size=n_probes, replace=False)
    prefilter_times = []
    for identity in probe_ids:
        probe = _device_view(fingers[identity], rng)
        started = time.perf_counter()
        survivors = index.top_k(descriptor_vector(probe), max(K_SWEEP))
        prefilter_times.append(time.perf_counter() - started)
        mate = f"/id-{identity:06d}"
        mate_rank = next(
            (c.rank for c in survivors if c.key.endswith(mate)), None
        )
        ranks.append(mate_rank)
        for k in K_SWEEP:
            if mate_rank is not None and mate_rank <= k:
                hits[k] += 1
    found = [r for r in ranks if r is not None]
    return {
        "probes": int(n_probes),
        "recall_at": {str(k): round(hits[k] / n_probes, 4) for k in K_SWEEP},
        "mate_rank_mean": round(float(np.mean(found)), 2) if found else None,
        "mate_rank_max": int(max(found)) if found else None,
        "missed_beyond_max_k": int(sum(1 for r in ranks if r is None)),
        "prefilter_p50_ms": round(
            1000.0 * float(np.percentile(prefilter_times, 50)), 2
        ),
    }


def _measure_footprint(fingers, rng):
    """Traced bytes held per gallery entry: template (with key) + index row."""
    n_fingers = max(1, min(len(fingers), FOOTPRINT_ENTRIES // 2))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        gallery = {}
        for i, finger in enumerate(fingers[:n_fingers]):
            for device in ("D0", "D1"):
                gallery[f"{device}/id-{i:06d}"] = _device_view(
                    finger, rng, **ENROLL_NOISE
                )
        templates = tracemalloc.get_traced_memory()[0] - start
        index = PrefilterIndex.from_items(
            {key: descriptor_vector(t) for key, t in gallery.items()}
        )
        rows = tracemalloc.get_traced_memory()[0] - start - templates
    finally:
        tracemalloc.stop()
    entries = len(index)
    return {
        "entries": entries,
        "template_bytes_per_entry": round(templates / entries),
        "index_bytes_per_entry": round(rows / entries),
        "traced_bytes_per_entry": round((templates + rows) / entries),
    }


def _measure_speedup(fingers, gallery, matcher, rng, n_oracle, candidate_k):
    """Exhaustive-vs-two-stage wall clock plus top-1 agreement."""
    identifier = TwoStageIdentifier(matcher, gallery, candidate_k=candidate_k)

    two_stage_times = []
    exhaustive_times = []
    agreements = 0
    probe_ids = rng.choice(len(fingers), size=n_oracle, replace=False)
    for i, identity in enumerate(probe_ids):
        probe = _device_view(fingers[identity], rng)

        started = time.perf_counter()
        fast, report = identifier.identify(probe, max_candidates=5)
        two_stage_times.append(time.perf_counter() - started)

        started = time.perf_counter()
        exhaustive = rank_candidates(matcher, probe, gallery)
        exhaustive_times.append(time.perf_counter() - started)

        if fast[0].identity == exhaustive[0].identity:
            agreements += 1
        print(
            f"  oracle probe {i + 1}/{n_oracle}: "
            f"two-stage {two_stage_times[-1] * 1000:.0f}ms, "
            f"exhaustive {exhaustive_times[-1]:.0f}s, "
            f"top1 {'agrees' if fast[0].identity == exhaustive[0].identity else 'DIFFERS'}",
            flush=True,
        )

    two_stage_mean = float(np.mean(two_stage_times))
    exhaustive_mean = float(np.mean(exhaustive_times))
    return {
        "oracle_probes": int(n_oracle),
        "candidate_k": int(candidate_k),
        "two_stage_mean_s": round(two_stage_mean, 4),
        "exhaustive_mean_s": round(exhaustive_mean, 2),
        "speedup": round(exhaustive_mean / two_stage_mean, 1),
        "two_stage_throughput_per_s": round(1.0 / two_stage_mean, 2),
        "exhaustive_throughput_per_s": round(1.0 / exhaustive_mean, 4),
        "oracle_top1_agreement": f"{agreements}/{n_oracle}",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--gallery-size", type=int, default=100_000,
                        help="total gallery entries (fingers x 2 devices)")
    parser.add_argument("--recall-probes", type=int, default=400)
    parser.add_argument("--oracle-probes", type=int, default=3)
    parser.add_argument("--candidate-k", type=int, default=DEFAULT_CANDIDATE_K)
    parser.add_argument("--seed", type=int, default=20130624)
    parser.add_argument("--label", default="two-stage identify index")
    parser.add_argument("--out", default="identify_index.json")
    args = parser.parse_args()

    n_fingers = max(1, args.gallery_size // 2)
    rng = np.random.default_rng(args.seed)
    matcher = BioEngineMatcher()

    print(f"building {2 * n_fingers}-entry gallery ...", flush=True)
    started = time.perf_counter()
    fingers, index, keys = _build_gallery(n_fingers, rng)
    build_seconds = time.perf_counter() - started

    print("tracing the per-entry footprint ...", flush=True)
    footprint = _measure_footprint(fingers, np.random.default_rng(args.seed + 2))
    footprint["projected_gallery_mb"] = round(
        footprint["traced_bytes_per_entry"] * 2 * n_fingers / 1e6, 1
    )
    print(f"  footprint: {footprint}", flush=True)

    print(f"measuring recall over {args.recall_probes} probes ...", flush=True)
    recall = _measure_recall(fingers, index, rng, args.recall_probes)
    print(f"  recall@K: {recall['recall_at']}", flush=True)

    # The oracle arm needs the actual templates; rebuild the (smaller)
    # dict the identifier scores against from fresh device views so its
    # index matches the recall index's distribution, not its RNG state.
    print("building oracle gallery dict ...", flush=True)
    oracle_rng = np.random.default_rng(args.seed + 1)
    gallery = {}
    for i, finger in enumerate(fingers):
        for device in ("D0", "D1"):
            gallery[f"{device}/id-{i:06d}"] = _device_view(
                finger, oracle_rng, **ENROLL_NOISE
            )

    print(f"timing {args.oracle_probes} exhaustive oracle probes ...", flush=True)
    speed = _measure_speedup(
        fingers, gallery, matcher, oracle_rng, args.oracle_probes,
        args.candidate_k,
    )

    record = {
        "label": args.label,
        "gallery_size": 2 * n_fingers,
        "devices_per_finger": 2,
        "seed": args.seed,
        "gallery_build_seconds": round(build_seconds, 1),
        "recall": recall,
        "speed": speed,
        "footprint": footprint,
    }

    OUTPUT_DIR.mkdir(exist_ok=True)
    out_path = OUTPUT_DIR / args.out
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))

    k = str(args.candidate_k)
    if k in recall["recall_at"]:
        assert recall["recall_at"][k] >= 0.99, (
            f"recall@{k} below the 0.99 floor: {recall['recall_at'][k]}"
        )
    assert speed["speedup"] >= 10.0, f"speedup below 10x: {speed['speedup']}"
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
