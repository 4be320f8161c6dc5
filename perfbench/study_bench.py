"""The ``study`` workload: cold studies in-process, plus a matcher-kernel probe.

One repetition is what ``repro run`` does at the CLI's default scale,
driven through the library's public entry points: a fresh
:class:`~repro.InteroperabilityStudy` with an empty score cache and
artifact store, ``collection()`` (acquisition via ``build_collection``),
``score_sets()`` (DMG/DDMG/DMI/DDMI), then every table and figure the
CLI renders.  The untraced run repeats that until the time is up and
reports medians; the traced run adds one repetition under the telemetry
recorder and the kernel probe.

The population is the library's default dataset (``StudyConfig``'s
master seed, what ``repro run`` uses without ``--seed``): a different
master seed is a different synthetic dataset, and its study costs up to
40 % more or less, which would bury any change in the program.  The
run's seed draws the kernel probe's sample of pairs.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import harness

FINGER = "right_index"
SCENARIOS = ("DMG", "DDMG", "DMI", "DDMI")
PINS_PATH = Path(__file__).with_name("pins.json")


def score_set_digest(score_set) -> str:
    """Content digest of one score set: scores and their provenance."""
    h = hashlib.blake2b(digest_size=16)
    for array in (
        score_set.scores.astype("<f8"),
        score_set.subject_gallery.astype("<i8"),
        score_set.subject_probe.astype("<i8"),
        score_set.device_gallery.astype("<U2"),
        score_set.device_probe.astype("<U2"),
    ):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def load_pins() -> Dict[str, dict]:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())


def _config(subjects: int, work: Path, label: str):
    from repro.api import StudyConfig
    import os

    rep_dir = work / label
    return StudyConfig(
        n_subjects=subjects,
        n_workers=os.cpu_count() or 1,
        cache_dir=str(rep_dir / "scores"),
        artifact_dir=str(rep_dir / "artifacts"),
    )


def _jobs(config) -> Dict[str, list]:
    """Each scenario's job list, from the library's own enumerators."""
    from repro.core.scores import (
        enumerate_ddmg_jobs,
        enumerate_dmg_jobs,
        sample_ddmi_jobs,
        sample_dmi_jobs,
    )
    from repro.runtime.rng import SeedTree

    n = config.n_subjects
    tree = SeedTree(config.master_seed)
    return {
        "DMG": enumerate_dmg_jobs(n),
        "DDMG": enumerate_ddmg_jobs(n),
        "DMI": sample_dmi_jobs(n, config.scaled_dmi_budget(), tree),
        "DDMI": sample_ddmi_jobs(n, config.scaled_ddmi_budget(), tree),
    }


def cold_study(config) -> dict:
    """One cold study end to end; returns its outputs and stage timings."""
    from repro.api import (
        DEVICE_ORDER,
        InteroperabilityStudy,
        kendall_matrix,
        low_score_quality_surface,
        quality_filtered_fnmr_matrix,
        render_figure1,
        render_figure4,
        render_figure5,
        render_fnmr_matrix,
        render_score_histograms,
        render_table1,
        render_table3,
        render_table4,
    )

    timings: Dict[str, float] = {}
    outputs: Dict[str, object] = {}
    started = time.perf_counter()
    study = InteroperabilityStudy(config)
    t = time.perf_counter()
    study.collection()
    timings["collection"] = time.perf_counter() - t
    t = time.perf_counter()
    sets = study.score_sets()
    timings["scores"] = time.perf_counter() - t

    def table5() -> str:
        outputs["table5"] = study.fnmr_matrix(1e-4)
        return render_fnmr_matrix(
            outputs["table5"], "Table 5: FNMR at fixed FMR of 0.01%"
        )

    # The artifacts `repro run` emits, in its order; each is timed alone.
    analyses = [
        ("fig1", lambda: render_figure1(study.demographics())),
        ("table1", render_table1),
        ("table3", lambda: render_table3(sets, config.n_subjects)),
        ("fig2", lambda: render_score_histograms(
            sets["DMG"].for_pair("D0", "D0"), sets["DMI"].for_pair("D0", "D0"),
            "Figure 2: DMG vs DMI, Cross Match Guardian R2")),
        ("fig3", lambda: render_score_histograms(
            sets["DDMG"].for_pair("D0", "D1"), sets["DDMI"].for_pair("D0", "D1"),
            "Figure 3: DDMG vs DDMI, Guardian R2 vs digID Mini")),
        ("fig4", lambda: render_figure4(
            {p: study.genuine_scores("D3", p).scores for p in DEVICE_ORDER},
            gallery_device="D3")),
        ("table4", lambda: render_table4(kendall_matrix(study))),
        ("table5", table5),
        ("table6", lambda: render_fnmr_matrix(
            quality_filtered_fnmr_matrix(study),
            "Table 6: FNMR at fixed FMR of 0.1%, NFIQ < 3")),
        ("fig5", lambda: render_figure5(
            low_score_quality_surface(study, cross_device=False),
            low_score_quality_surface(study, cross_device=True))),
    ]
    texts = {}
    for name, render in analyses:
        t = time.perf_counter()
        texts[name] = render()
        timings[f"analysis.{name}"] = time.perf_counter() - t
    timings["study"] = time.perf_counter() - started
    outputs["texts"] = texts
    return {"study": study, "sets": sets, "timings": timings, **outputs}


def check_study(config, run: dict, pins: Dict[str, dict]) -> List[str]:
    """Output checks of one repetition; returns the failures (empty = ok)."""
    failures = []
    sets = run["sets"]
    for scenario, jobs in _jobs(config).items():
        got = len(sets[scenario])
        if got != len(jobs):
            failures.append(f"{scenario}: {got} scores, {len(jobs)} jobs")
        if not np.all(np.isfinite(sets[scenario].scores)):
            failures.append(f"{scenario}: non-finite score")
    for name, text in run["texts"].items():
        if not isinstance(text, str) or not text.strip():
            failures.append(f"{name}: empty rendering")
    pin = pins.get(str(config.master_seed))
    if pin is not None and pin["subjects"] == config.n_subjects:
        for scenario in SCENARIOS:
            if score_set_digest(sets[scenario]) != pin["digests"][scenario]:
                failures.append(f"{scenario}: digest differs from the pin")
        table5 = np.asarray(run["table5"], dtype=np.float64)
        pinned = np.asarray(pin["table5"], dtype=np.float64)
        if table5.shape != pinned.shape or not np.array_equal(
            table5, pinned, equal_nan=True
        ):
            failures.append("table5: differs from the pin")
    return failures


def import_seconds(root: Path) -> float:
    """A cold process's set-up: interpreter start plus the program's imports.

    The study itself needs nothing else before its first stage, so this
    is its set-up time; the median of a few fresh processes is steadier
    than the one import the benchmark process made.
    """
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.api"], cwd=root,
                   env=harness.clean_env(root), check=True)
    return time.perf_counter() - started


def genuine_accept_rate(sets) -> float:
    """Share of DMG+DDMG scores at or above the service's threshold."""
    from repro.service.server import DEFAULT_THRESHOLD

    genuine = np.concatenate([sets["DMG"].scores, sets["DDMG"].scores])
    return float(np.mean(genuine >= DEFAULT_THRESHOLD)) if genuine.size else 0.0


def comparisons(run: dict) -> int:
    """Matcher comparisons one repetition made (score sets + D4 diagonal)."""
    return sum(len(s) for s in run["sets"].values()) + len(
        run["study"].d4_diagonal_genuine()
    )


# ----------------------------------------------------------------------
# Matcher-kernel probe
# ----------------------------------------------------------------------
def kernel_probe(collection, config, pairs_per_scenario: int, seed: int) -> dict:
    """Time each kernel stage on seed-drawn study pairs, in kernel order.

    Calls the stage functions ``BioEngineMatcher._match_frames`` chains —
    descriptors, similarity, candidates, alignment, pairing, score — and
    requires the staged score to equal ``BioEngineMatcher.match`` bit for
    bit on every pair, so the split times the real kernel.
    """
    from repro.matcher import BioEngineMatcher
    from repro.matcher.alignment import candidate_pairs, estimate_alignments
    from repro.matcher.descriptors import build_descriptors, similarity_matrix
    from repro.matcher.pairing import pair_minutiae
    from repro.matcher.scoring import MIN_TEMPLATE_MINUTIAE, compute_score

    rng = np.random.default_rng([seed, 0x4B52])
    pairs = []
    for scenario, jobs in _jobs(config).items():
        picks = rng.choice(len(jobs), size=min(pairs_per_scenario, len(jobs)),
                           replace=False)
        for k in sorted(int(p) for p in picks):
            sg, dg, setg, sp, dp, setp = jobs[k]
            pairs.append((
                collection.get(sp, FINGER, dp, setp).template,
                collection.get(sg, FINGER, dg, setg).template,
            ))

    frames: Dict[tuple, tuple] = {}
    descriptor_ns: List[int] = []

    def frame(template):
        key = template.content_key()
        if key not in frames:
            t = time.perf_counter_ns()
            built = (template.positions_mm(), template.angles(),
                     template.qualities(), build_descriptors(template))
            descriptor_ns.append(time.perf_counter_ns() - t)
            frames[key] = built
        return frames[key]

    stages = {name: [] for name in
              ("similarity", "candidates", "alignment", "pairing", "score")}
    candidate_counts: List[int] = []
    transform_counts: List[int] = []
    mismatches = 0
    degenerate = 0
    oracle = BioEngineMatcher()
    for probe, gallery in pairs:
        expected = oracle.match(probe, gallery)
        if len(probe) < MIN_TEMPLATE_MINUTIAE or len(gallery) < MIN_TEMPLATE_MINUTIAE:
            degenerate += 1
            mismatches += int(expected != 0.0)
            continue
        pos_p, ang_p, qual_p, desc_p = frame(probe)
        pos_g, ang_g, qual_g, desc_g = frame(gallery)
        t0 = time.perf_counter_ns()
        similarity = similarity_matrix(desc_p, desc_g)
        t1 = time.perf_counter_ns()
        candidates = candidate_pairs(similarity)
        t2 = time.perf_counter_ns()
        transforms = estimate_alignments(pos_p, ang_p, pos_g, ang_g, candidates)
        t3 = time.perf_counter_ns()
        pairing_ns = score_ns = 0
        best: Optional[float] = None
        for transform in transforms:
            a = time.perf_counter_ns()
            pairing = pair_minutiae(pos_p, ang_p, pos_g, ang_g, transform)
            b = time.perf_counter_ns()
            breakdown = compute_score(pairing, qual_p, qual_g)
            c = time.perf_counter_ns()
            pairing_ns += b - a
            score_ns += c - b
            if best is None or breakdown.score > best:
                best = breakdown.score
        staged = 0.0 if best is None else best
        mismatches += int(staged != expected)
        stages["similarity"].append(t1 - t0)
        stages["candidates"].append(t2 - t1)
        stages["alignment"].append(t3 - t2)
        stages["pairing"].append(pairing_ns)
        stages["score"].append(score_ns)
        candidate_counts.append(int(candidates.shape[0]))
        transform_counts.append(len(transforms))

    result = {
        "pairs": len(pairs),
        "degenerate": degenerate,
        "mismatches": mismatches,
        "matcher.descriptors_us": harness.median(descriptor_ns) / 1000.0,
        "matcher.candidates_per_comparison": harness.mean(candidate_counts),
        "matcher.transforms_per_comparison": harness.mean(transform_counts),
    }
    for name, samples in stages.items():
        result[f"matcher.{name}_us"] = harness.median(samples) / 1000.0
    return result


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(root: Path, work: Path, workload: str, seed: int, params: dict,
        trace: bool, seconds: float, setup_started: float) -> dict:
    subjects = params["subjects"]
    pins = load_pins()
    from repro.runtime.telemetry import disable_telemetry, enable_telemetry

    # Eleven: one cold import takes 0.49-0.84 s on a 2-CPU box, and the
    # median of five still spread by a third between runs.
    setup_s = harness.median([import_seconds(root) for _ in range(11)])
    attempted = failed = 0
    failures: List[str] = []
    runs: List[dict] = []

    def one(label: str) -> dict:
        nonlocal attempted, failed
        config = _config(subjects, work, label)
        result = cold_study(config)
        result["config"] = config
        problems = check_study(config, result, pins)
        attempted += 1
        if problems:
            failed += 1
            failures.extend(problems)
        return result

    if not trace:
        window_started = time.perf_counter()
        peak_rss_mb = 0.0
        while True:
            runs.append(one(f"rep{len(runs)}"))
            if len(runs) == 1:
                # Read after the first repetition: later ones only add
                # allocator growth, and their count varies with speed.
                peak_rss_mb = (harness.self_peak_rss_mb()
                               + harness.children_peak_rss_mb())
            elapsed = time.perf_counter() - window_started
            # Start another repetition while at least half of it fits.
            if elapsed + runs[-1]["timings"]["study"] / 2 > seconds:
                break
        study_s = [r["timings"]["study"] for r in runs]
        rates = [comparisons(r) / r["timings"]["study"] for r in runs]
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "p50_ms": 1000.0 * harness.median(study_s),
            "tail_ms": 1000.0 * harness.tail(study_s)["value"],
            "goodput_per_s": harness.median(rates),
            "hit_rate": genuine_accept_rate(runs[0]["sets"]),
        }
        return {"attempted": attempted, "failed": failed, "failures": failures,
                "metrics": metrics, "valid": True,
                "details": {"repetitions": len(runs), "study_s": study_s}}

    # Traced run: one untraced repetition (the overhead baseline), one
    # under the telemetry recorder, then the kernel probe.
    baseline = one("untraced")
    recorder = enable_telemetry()
    try:
        traced = one("traced")
        snapshot = recorder.metrics.snapshot()
        spans = recorder.span_tree()
    finally:
        disable_telemetry()
    probe = kernel_probe(
        traced["study"].collection(), traced["config"],
        params["probe_pairs_per_scenario"], seed,
    )
    attempted += probe["pairs"]
    failed += probe["mismatches"]
    if probe["mismatches"]:
        failures.append(f"kernel probe: {probe['mismatches']} staged scores "
                        "differ from BioEngineMatcher.match")
    metrics = study_layers(traced, baseline, snapshot, spans, probe)
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "valid": True,
            "details": {"probe_pairs": probe["pairs"],
                        "probe_degenerate": probe["degenerate"]}}


def _span_seconds(tree: dict) -> Dict[str, float]:
    """Total seconds per span name over the whole tree."""
    totals: Dict[str, float] = {}

    def walk(node: dict) -> None:
        totals[node["name"]] = totals.get(node["name"], 0.0) + node["seconds"]
        for child in node["children"]:
            walk(child)

    walk(tree)
    return totals


def study_layers(traced: dict, baseline: dict, snapshot: dict, spans: dict,
                 probe: dict) -> Dict[str, float]:
    """Per-layer metrics of the traced repetition."""
    counters = snapshot["counters"]
    histograms = snapshot["histograms"]
    span_s = _span_seconds(spans)
    timings = traced["timings"]
    workers = traced["config"].n_workers
    analysis = {k.split(".", 1)[1]: v for k, v in timings.items()
                if k.startswith("analysis.")}
    analysis_s = sum(analysis.values())
    scenario_s = {s: span_s.get(f"scores.{s}", 0.0) for s in SCENARIOS}
    impressions = counters.get("acquisition.impressions", 0)
    busy = histograms.get("parallel.batch_seconds", {}).get("sum", 0.0)
    may_pool = span_s.get("acquisition.build", 0.0) + sum(scenario_s.values())
    metrics = {
        "datasets.build_collection_s": timings["collection"],
        "datasets.impressions": float(impressions),
        "datasets.attempts_per_impression": harness.ratio(
            counters.get("acquisition.attempts", 0), impressions),
        "matcher.comparisons": float(sum(
            v for k, v in counters.items()
            if k.startswith("matcher.invocations."))),
        "runtime.parallel.batches": float(counters.get("parallel.batches", 0)),
        "runtime.parallel.busy_s": busy,
        "runtime.parallel.efficiency": harness.ratio(busy, workers * may_pool),
        "core.analysis_s": analysis_s,
        "core.kendall_s": analysis["table4"],
        "core.fnmr_s": analysis["table5"] + analysis["table6"],
        "core.quality_s": analysis["fig5"],
        "synthesis.demographics_s": analysis["fig1"],
        "study.accounted_ratio": harness.ratio(
            timings["collection"] + sum(scenario_s.values()) + analysis_s,
            timings["study"]),
        "trace.overhead_pct": 100.0 * harness.ratio(
            timings["study"] - baseline["timings"]["study"],
            baseline["timings"]["study"]),
    }
    for scenario, seconds in scenario_s.items():
        metrics[f"core.scores.{scenario}_s"] = seconds
    for name in ("descriptors", "similarity", "candidates", "alignment",
                 "pairing", "score"):
        metrics[f"matcher.{name}_us"] = probe[f"matcher.{name}_us"]
    metrics["matcher.candidates_per_comparison"] = probe[
        "matcher.candidates_per_comparison"]
    metrics["matcher.transforms_per_comparison"] = probe[
        "matcher.transforms_per_comparison"]
    return metrics


def pin(work: Path, subjects: int) -> Dict[str, dict]:
    """Digests and Table 5 of the default dataset (for ``pins.json``)."""
    config = _config(subjects, work, "pin")
    result = cold_study(config)
    return {
        str(config.master_seed): {
            "subjects": subjects,
            "digests": {s: score_set_digest(result["sets"][s]) for s in SCENARIOS},
            "table5": [[float(v) for v in row] for row in
                       np.asarray(result["table5"], dtype=np.float64)],
        }
    }

