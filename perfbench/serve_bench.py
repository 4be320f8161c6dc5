"""The serving workloads: ``serve_mixed`` and ``identify_scale``.

Both start a real ``repro serve`` subprocess and drive it with
:class:`~repro.service.ServiceClient` from an open-loop schedule over
two connections (:mod:`loadgen`).  Every verify and identify answer is
checked afterwards against an offline ``BioEngineMatcher`` score of the
same templates, rounded the way the server rounds.

The untraced run serves with the default configuration.  The traced run
serves the same schedule twice — first untraced (the overhead baseline),
then with ``--reqlog`` and ``--manifest-out`` — and splits the traced
latencies with the request log's phases, ``/metrics`` deltas and the
manifest's counters.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import harness
import loadgen

FINGER = "right_index"
WRITE_DEVICE = "writes"

#: Seed of the fixed synthetic gallery of ``identify_scale`` (the
#: library's default master seed, which also fixes ``serve_mixed``'s
#: population).
GALLERY_SEED = 20130624


def _round_trip(template):
    """The template as the server sees it after the INCITS 378 wire.

    ``None`` when the wire form cannot carry it (a minutia outside the
    14-bit coordinate range): no client could send such a template.
    """
    from repro.io.incits378 import decode, encode
    from repro.runtime.errors import TemplateFormatError

    try:
        return decode(encode(template))[0]
    except TemplateFormatError:
        return None


def _ranked(scores: Dict[str, float], limit: int) -> List[Tuple[str, float]]:
    """The server's ordering: ``(-score, key)``, top ``limit``."""
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------
class MixedInputs:
    """serve_mixed: a 2-device gallery, its probes and expected answers."""

    def __init__(self, seed: int, params: dict, seconds: float) -> None:
        from repro.api import StudyConfig, build_collection
        from repro.sensors.registry import DEVICE_ORDER

        self.params = params
        self.devices = list(params["gallery_devices"])
        # The population is fixed (the library's default master seed);
        # the run's seed drives the schedule: arrival times, kinds,
        # subjects and devices.  A per-seed population made the cost of
        # an exact identify, and so the latency tail, a property of the
        # seed rather than of the program.
        config = StudyConfig(
            n_subjects=params["subjects"], n_workers=os.cpu_count() or 1,
        )
        collection = build_collection(config)
        self.gallery = {
            (s, d): _round_trip(collection.get(s, FINGER, d, 0).template)
            for s in range(config.n_subjects) for d in self.devices
        }
        self.probes = {
            (s, d): _round_trip(collection.get(s, FINGER, d, 1).template)
            for s in range(config.n_subjects) for d in DEVICE_ORDER
        }
        self.others = {
            d: [p for p in DEVICE_ORDER if p != d] for d in self.devices
        }
        #: Subjects all of whose templates cross the wire; narrowed to
        #: those the server's quality gate accepts on every device.
        self.sendable = [
            s for s in range(config.n_subjects)
            if all(self.gallery[(s, d)] is not None for d in self.devices)
            and all(self.probes[(s, d)] is not None for d in DEVICE_ORDER)
        ]
        self.arrivals = loadgen.schedule(
            seed, params["rate_per_s"], seconds,
            [(kind, weight) for kind, weight in params["mix"]],
            subjects=config.n_subjects, variants=8,
        )
        self.eligible: List[int] = []

    def request(self, arrival: loadgen.Arrival) -> dict:
        """What an arrival asks for (before eligibility remapping)."""
        subject = self.eligible[arrival.subject % len(self.eligible)]
        device = self.devices[arrival.variant % len(self.devices)]
        if arrival.kind == "verify_cross":
            probe_device = self.others[device][
                (arrival.variant // 2) % len(self.others[device])]
        else:
            probe_device = device
        return {"subject": subject, "device": device,
                "probe_device": probe_device}

    def expected(self, matcher, enrolled: Dict[str, List[int]]) -> None:
        """Offline scores of every pair the schedule will ask about.

        ``enrolled`` lists the subjects each device shard accepted: an
        identify ranks the whole shard, including subjects the other
        shard's quality gate refused.
        """
        self.verify_scores: Dict[Tuple, float] = {}
        self.identify_scores: Dict[Tuple, Dict[str, float]] = {}
        for arrival in self.arrivals:
            req = self.request(arrival)
            s, d, p = req["subject"], req["device"], req["probe_device"]
            if arrival.kind.startswith("verify"):
                key = (s, d, p)
                if key not in self.verify_scores:
                    self.verify_scores[key] = matcher.match(
                        self.probes[(s, p)], self.gallery[(s, d)])
            elif arrival.kind == "identify":
                key = (s, d)
                if key not in self.identify_scores:
                    probe = self.probes[(s, d)]
                    self.identify_scores[key] = {
                        f"subject-{g}": matcher.match(probe, self.gallery[(g, d)])
                        for g in enrolled[d]
                    }


class ScaleInputs:
    """identify_scale: a synthetic fingers x 2-devices gallery and probes.

    The generator mirrors ``benchmarks/bench_identify_index.py``: random
    plausible templates, two gently perturbed enrollment views per finger
    (enrollment is quality-gated), and probes that take the full
    re-capture perturbation — pose, jitter, dropout, spurious minutiae.
    """

    ENROLL_NOISE = {"drop": 0.05, "jitter_px": 0.5, "spurious": 1}

    def __init__(self, seed: int, params: dict, seconds: float) -> None:
        # The gallery is the same every run; the run's seed draws the
        # probes (mates and their re-capture views) and the schedule.
        rng = np.random.default_rng([GALLERY_SEED, 0x1D5C])
        fingers = [self._random_template(rng) for _ in range(params["fingers"])]
        self.gallery: Dict[str, object] = {}
        for i, finger in enumerate(fingers):
            for device in ("D0", "D1"):
                self.gallery[f"{device}/id-{i:06d}"] = self._device_view(
                    finger, rng, **self.ENROLL_NOISE)
        rng = np.random.default_rng([seed, 0x9B0B])
        mates = rng.integers(0, len(fingers), size=params["probes"])
        self.probes = [
            (f"id-{int(m):06d}",
             _round_trip(self._device_view(fingers[int(m)], rng)))
            for m in mates
        ]
        self.arrivals = loadgen.schedule(
            seed, params["rate_per_s"], seconds, [("identify", 1.0)],
            subjects=len(self.probes),
        )

    @staticmethod
    def _random_template(rng, n_min=25, n_max=60):
        from repro.matcher.types import template_from_arrays

        n = int(rng.integers(n_min, n_max + 1))
        return template_from_arrays(
            positions_px=rng.uniform((30.0, 30.0), (270.0, 370.0), size=(n, 2)),
            angles=rng.uniform(0.0, 2.0 * np.pi, size=n),
            kinds=rng.choice((1, 2), size=n, p=(0.6, 0.4)),
            qualities=rng.integers(40, 100, size=n),
            width_px=300, height_px=400,
        )

    @staticmethod
    def _device_view(template, rng, drop=0.15, jitter_px=1.5, spurious=3):
        from repro.matcher.types import template_from_arrays

        positions = template.positions_px()
        angles = template.angles()
        kinds = template.kinds()
        qualities = template.qualities()
        theta = float(rng.uniform(-0.4, 0.4))
        rotation = np.array([[np.cos(theta), -np.sin(theta)],
                             [np.sin(theta), np.cos(theta)]])
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
        extra = int(rng.integers(0, spurious + 1))
        if extra:
            positions = np.vstack([positions, rng.uniform(
                (30.0, 30.0), (270.0, 370.0), (extra, 2))])
            angles = np.concatenate([angles, rng.uniform(0.0, 2 * np.pi, extra)])
            kinds = np.concatenate([kinds, rng.choice((1, 2), extra)])
            qualities = np.concatenate([qualities, rng.integers(40, 100, extra)])
        # A sensor sees nothing outside its window (and the INCITS 378
        # wire form cannot carry negative coordinates).
        inside = np.all((positions >= 0.0) & (positions < (300.0, 400.0)), axis=1)
        positions, angles = positions[inside], angles[inside]
        kinds, qualities = kinds[inside], qualities[inside]
        return template_from_arrays(
            positions_px=positions, angles=angles, kinds=kinds,
            qualities=qualities, width_px=300, height_px=400,
        )

    def build_gallery(self, root: Path) -> None:
        """Enroll every view through ``GalleryIndex`` (the server reloads it)."""
        from repro.service import GalleryIndex

        with GalleryIndex(root, max_nfiq_level=5, wal_sync="never") as gallery:
            for key, template in self.gallery.items():
                device, identity = key.split("/")
                gallery.enroll(identity, template, device=device)


# ----------------------------------------------------------------------
# Driving a server
# ----------------------------------------------------------------------
def _scrape(client) -> Dict[str, float]:
    """The ``/metrics`` counters the per-layer split needs."""
    from repro.service.metrics import parse_exposition, sample_value

    families = parse_exposition(client.metrics())
    names = ("repro_batches_total", "repro_batched_jobs_total",
             "repro_wal_fsyncs_total", "repro_wal_bytes_total")
    return {name: float(sample_value(families, name) or 0.0) for name in names}


def _serve_once(
    root: Path, work: Path, tag: str, server_args: List[str], traced: bool,
    api_key: Optional[str], arrivals, send: Callable, connections: int,
    setup: Optional[Callable] = None,
) -> dict:
    """Start a server, run the schedule against it, stop it."""
    from repro.service import ServiceClient

    args = list(server_args)
    reqlog = work / f"{tag}.reqlog.jsonl"
    manifest = work / f"{tag}.manifest.json"
    if traced:
        args += ["--reqlog", str(reqlog), "--manifest-out", str(manifest)]
    server = harness.ServerProcess(root, args, work / f"{tag}.stderr.log")
    server.start()
    try:
        with ServiceClient("127.0.0.1", server.port, api_key=api_key) as admin:
            if setup is not None:
                setup(admin)
            before = _scrape(admin)
            clients = [ServiceClient("127.0.0.1", server.port, api_key=api_key)
                       for _ in range(connections)]
            try:
                due_started = time.perf_counter()
                outcomes = loadgen.run_open_loop(
                    arrivals,
                    lambda c, arrival, outcome: send(clients[c], arrival, outcome),
                    connections=connections,
                )
            finally:
                for client in clients:
                    client.close()
            after = _scrape(admin)
    finally:
        server.stop()
    records = []
    if traced:
        from repro.service.reqlog import iter_reqlog

        records = list(iter_reqlog(reqlog))
    return {
        "outcomes": outcomes,
        "due_started": due_started,
        "metrics_delta": {k: after[k] - before[k] for k in after},
        "records": records,
        "manifest": json.loads(manifest.read_text()) if traced else {},
        "load_s": server.load_s,
        "peak_rss_mb": server.peak_rss_mb,
    }


def _kind(arrival_kind: str) -> str:
    return "verify" if arrival_kind.startswith("verify") else arrival_kind


def _end_to_end(outcomes, good: Sequence[bool], hits: Sequence[bool],
                setup_s: float, peak_rss_mb: float) -> dict:
    latencies = [o.latency_ms for o in outcomes]
    # The measured window: the schedule's start to the last answer.
    window_s = max(o.done for o in outcomes)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "p50_ms": harness.median(latencies),
        "tail_ms": harness.tail(latencies)["value"],
        "goodput_per_s": sum(good) / window_s,
        "hit_rate": harness.ratio(sum(hits), len(hits)),
    }


def _layers(served: dict, baseline: dict, primary: str,
            outcomes_by_id: Dict[str, loadgen.Outcome]) -> Dict[str, float]:
    """Per-layer split of a traced serve from its reqlog, metrics, manifest."""
    outcomes = served["outcomes"]
    by_kind: Dict[str, List[float]] = {}
    for o in outcomes:
        by_kind.setdefault(_kind(o.arrival.kind), []).append(o.latency_ms)
    metrics: Dict[str, float] = {}
    for kind in ("verify", "identify", "enroll"):
        samples = by_kind.get(kind, [])
        metrics[f"serve.{kind}_p50_ms"] = harness.median(samples)
        metrics[f"serve.{kind}_tail_ms"] = harness.tail(samples)["value"] \
            if samples else 0.0

    def phase_ms(record: dict, name: str) -> float:
        return sum(p["ms"] for p in record.get("phases", []) if p["name"] == name)

    primary_records = [r for r in served["records"] if r["endpoint"] == primary
                       and r.get("request_id") in outcomes_by_id]
    for name in ("auth", "limits", "parse", "respond"):
        metrics[f"service.server.{name}_ms"] = harness.median(
            [phase_ms(r, name) for r in primary_records])
    unattributed = [
        outcomes_by_id[r["request_id"]].service_ms - r["latency_ms"]
        for r in primary_records
    ]
    metrics["service.server.unattributed_ms"] = harness.median(unattributed)
    metrics["service.batching.queue_wait_ms"] = harness.median(
        [r["queue_wait_ms"] for r in primary_records])
    metrics["service.batching.batch_wait_ms"] = harness.median(
        [r["batch_wait_ms"] for r in primary_records])
    metrics["service.matcher.match_ms"] = harness.median(
        [r["match_ms"] for r in primary_records])
    reads = [r for r in served["records"] if r["endpoint"] in ("verify", "identify")]
    metrics["service.gallery.read_ms"] = harness.median(
        [phase_ms(r, "gallery") for r in reads])
    enrolls = [r for r in served["records"] if r["endpoint"] == "enroll"]
    metrics["service.gallery.enroll_ms"] = harness.median(
        [phase_ms(r, "gallery") for r in enrolls])
    identifies = [r for r in served["records"] if r["endpoint"] == "identify"]
    metrics["core.prefilter.ms"] = harness.median(
        [phase_ms(r, "prefilter") for r in identifies])
    # Phases plus the unattributed rest against the client's send-to-done
    # time (means add up; medians do not).
    phase_sum = harness.mean([sum(p["ms"] for p in r.get("phases", []))
                              for r in primary_records])
    client = harness.mean([outcomes_by_id[r["request_id"]].service_ms
                           for r in primary_records])
    metrics["service.accounted_ratio"] = harness.ratio(
        phase_sum + harness.mean(unattributed), client)

    delta = served["metrics_delta"]
    metrics["service.batching.batch_size"] = harness.ratio(
        delta["repro_batched_jobs_total"], delta["repro_batches_total"])
    counters = served["manifest"].get("counters", {})
    metrics["service.batching.collapsed_ratio"] = harness.ratio(
        counters.get("matcher.collapsed", 0), delta["repro_batched_jobs_total"])
    enroll_count = sum(1 for o in outcomes if o.arrival.kind == "enroll" and o.ok)
    metrics["runtime.wal.fsyncs_per_enroll"] = harness.ratio(
        delta["repro_wal_fsyncs_total"], enroll_count)
    metrics["runtime.wal.bytes_per_enroll"] = harness.ratio(
        delta["repro_wal_bytes_total"], enroll_count)
    metrics["service.gallery.load_s"] = served["load_s"]
    validity = loadgen.harness_validity(outcomes)
    metrics["loadgen.late_ms"] = validity["late_tail_ms"]
    metrics["loadgen.conn_wait_ms"] = validity["conn_wait_tail_ms"]
    untraced_p50 = harness.median([o.latency_ms for o in baseline["outcomes"]])
    traced_p50 = harness.median([o.latency_ms for o in outcomes])
    metrics["trace.overhead_pct"] = 100.0 * harness.ratio(
        traced_p50 - untraced_p50, untraced_p50)
    return metrics


def _finish(trace: bool, serves: List[dict], check: Callable,
            setup_s: float, primary: str, limits: Dict[str, float]) -> dict:
    """Check every answer, then build the run's result."""
    attempted = failed = 0
    failures: List[str] = []
    for served in serves:
        good, hits = [], []
        for outcome in served["outcomes"]:
            attempted += 1
            problem, hit = check(outcome)
            if problem is not None:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"request {outcome.arrival.index} "
                                    f"({outcome.arrival.kind}): {problem}")
            if hit is not None:
                hits.append(hit)
            good.append(problem is None
                        and outcome.latency_ms <= limits[_kind(outcome.arrival.kind)])
    measured = serves[-1]
    validity = loadgen.harness_validity(measured["outcomes"])
    result = {"attempted": attempted, "failed": failed, "failures": failures,
              "valid": bool(validity["valid"]),
              "invalid_reason": (
                  f"generator lateness tail {validity['late_tail_ms']:.2f} ms "
                  f"over the {loadgen.LATE_BOUND_MS} ms bound"),
              "details": {"requests": len(measured["outcomes"]),
                          "late_tail_pct": validity["late_tail_pct"],
                          "tail_pct": harness.tail(
                              [o.latency_ms for o in measured["outcomes"]])["pct"]}}
    if not trace:
        result["metrics"] = _end_to_end(measured["outcomes"], good, hits,
                                        setup_s, measured["peak_rss_mb"])
    else:
        by_id = {o.extra["request_id"]: o for o in measured["outcomes"]
                 if "request_id" in o.extra}
        result["metrics"] = _layers(measured, serves[0], primary, by_id)
    return result


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def _run_mixed(root, work, seed, params, trace, seconds, setup_started) -> dict:
    from repro.matcher import BioEngineMatcher
    from repro.service.auth import generate_key, write_keyfile

    inputs = MixedInputs(seed, params, seconds)
    key = generate_key()
    keyfile = work / "keys.json"
    roomy = {"rate": 100000.0, "burst": 100000.0}
    write_keyfile(keyfile, [{
        "principal": "perfbench", "key": key,
        "roles": ["read", "write", "admin"],
        "limits": {"read": roomy, "write": roomy, "admin": roomy},
    }])
    matcher = BioEngineMatcher()

    def enroll_gallery(admin) -> None:
        from repro.service import ServiceClientError

        enrolled: Dict[str, List[int]] = {d: [] for d in inputs.devices}
        for s in inputs.sendable:
            for d in inputs.devices:
                try:
                    admin.enroll(f"subject-{s}", inputs.gallery[(s, d)], device=d)
                    enrolled[d].append(s)
                except ServiceClientError as exc:
                    if exc.status != 422:  # refused by the quality gate
                        raise
        eligible = sorted(set.intersection(*(set(v) for v in enrolled.values())))
        if inputs.eligible and inputs.eligible != eligible:
            raise RuntimeError("gallery eligibility changed between servers")
        if not inputs.eligible:
            inputs.eligible = eligible
            inputs.expected(matcher, enrolled)

    limit = params["max_candidates"]

    def send(client, arrival, outcome):
        req = inputs.request(arrival)
        s, d, p = req["subject"], req["device"], req["probe_device"]
        if arrival.kind.startswith("verify"):
            response = client.verify(f"subject-{s}", inputs.probes[(s, p)], device=d)
        elif arrival.kind == "identify":
            response = client.identify(inputs.probes[(s, d)], device=d,
                                       max_candidates=limit)
        else:
            identity = f"w{arrival.index:06d}"
            enrolled = client.enroll(identity, inputs.gallery[(s, d)],
                                     device=WRITE_DEVICE)
            outcome.extra["request_id"] = client.last_request_id
            deleted = client.delete(identity, device=WRITE_DEVICE)
            return {"enrolled": enrolled, "deleted": deleted, "identity": identity}
        outcome.extra["request_id"] = client.last_request_id
        return response

    def check(outcome) -> Tuple[Optional[str], Optional[bool]]:
        if not outcome.ok:
            return outcome.error, (False if outcome.arrival.kind != "enroll" else None)
        req = inputs.request(outcome.arrival)
        s, d, p = req["subject"], req["device"], req["probe_device"]
        response = outcome.result
        kind = outcome.arrival.kind
        if kind.startswith("verify"):
            expected = round(inputs.verify_scores[(s, d, p)], 4)
            decision = "accept" if response["score"] >= response["threshold"] \
                else "reject"
            if response["score"] != expected:
                return f"score {response['score']} != offline {expected}", False
            if response["decision"] != decision:
                return f"decision {response['decision']} at score " \
                       f"{response['score']}", False
            return None, response["decision"] == "accept"
        if kind == "identify":
            want = [(k, round(v, 4)) for k, v in
                    _ranked(inputs.identify_scores[(s, d)], limit)]
            got = [(c["identity"], c["score"]) for c in response["candidates"]]
            if got != want:
                return f"candidates {got[:3]} != offline {want[:3]}", False
            return None, bool(got) and got[0][0] == f"subject-{s}"
        if response["enrolled"].get("identity") != response["identity"] or \
                response["deleted"].get("deleted") != response["identity"]:
            return "enroll/delete did not echo the identity", None
        return None, None

    server_args = ["--gallery-dir", "", "--keys", str(keyfile)]
    serves = []
    setup_s = 0.0
    for tag, traced in ([("untraced", False), ("traced", True)] if trace
                        else [("untraced", False)]):
        server_args[1] = str(work / f"gallery-{tag}")
        serves.append(_serve_once(
            root, work, tag, server_args, traced, key, inputs.arrivals, send,
            params["connections"], setup=enroll_gallery,
        ))
        if not serves[:-1]:
            setup_s = serves[-1]["due_started"] - setup_started
    return _finish(trace, serves, check, setup_s, "verify",
                   params["latency_limit_ms"])


# ----------------------------------------------------------------------
# identify_scale
# ----------------------------------------------------------------------
def _run_scale(root, work, seed, params, trace, seconds, setup_started) -> dict:
    from repro.matcher import BioEngineMatcher

    inputs = ScaleInputs(seed, params, seconds)
    gallery_dir = work / "gallery"
    inputs.build_gallery(gallery_dir)
    k = params["candidate_k"]
    limit = params["max_candidates"]

    def send(client, arrival, outcome):
        _mate, probe = inputs.probes[arrival.subject]
        response = client.identify(probe, device=None, max_candidates=limit,
                                   candidate_k=k)
        outcome.extra["request_id"] = client.last_request_id
        return response

    matcher = BioEngineMatcher()

    def check(outcome) -> Tuple[Optional[str], Optional[bool]]:
        if not outcome.ok:
            return outcome.error, False
        mate, probe = inputs.probes[outcome.arrival.subject]
        response = outcome.result
        search = response["search"]
        if search["mode"] != "two_stage" or search["candidates_scored"] != min(
                k, len(inputs.gallery)):
            return f"search block {search}", False
        keys = [f"{c['device']}/{c['identity']}" for c in response["candidates"]]
        scores = [c["score"] for c in response["candidates"]]
        # The server orders by (-score, key) before rounding, so rounded
        # ties may carry either key order.
        if len(keys) != min(limit, k) or any(
                a < b for a, b in zip(scores, scores[1:])):
            return "candidates not ordered by descending score", False
        top = response["candidates"][0]
        expected = round(matcher.match(probe, inputs.gallery[keys[0]]), 4)
        if top["score"] != expected:
            return f"top score {top['score']} != offline {expected}", False
        return None, top["identity"] == mate

    server_args = ["--gallery-dir", str(gallery_dir),
                   "--identify-mode", "two_stage", "--candidate-k", str(k)]
    serves = []
    setup_s = 0.0
    for tag, traced in ([("untraced", False), ("traced", True)] if trace
                        else [("untraced", False)]):
        serves.append(_serve_once(
            root, work, tag, server_args, traced, None, inputs.arrivals, send,
            params["connections"],
        ))
        if not serves[:-1]:
            setup_s = serves[-1]["due_started"] - setup_started
    return _finish(trace, serves, check, setup_s, "identify",
                   params["latency_limit_ms"])


def run(root: Path, work: Path, workload: str, seed: int, params: dict,
        trace: bool, seconds: float, setup_started: float) -> dict:
    if workload == "serve_mixed":
        return _run_mixed(root, work, seed, params, trace, seconds, setup_started)
    return _run_scale(root, work, seed, params, trace, seconds, setup_started)
