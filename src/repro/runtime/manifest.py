"""Run manifests — the JSON artifact every instrumented run leaves behind.

A :class:`RunManifest` captures, in one file, everything needed to
answer "what did that run do and where did the time go": the config
fingerprint and seed (so the run is replayable), the library version
(plus ``git describe`` when available), the nested span timings, every
counter/gauge/histogram, and derived cache statistics.  Benchmarks and
``repro run --manifest-out`` both emit one; ``repro stats`` renders it
back into a human-readable summary.

The schema is validated dependency-free: :data:`MANIFEST_SCHEMA` is a
JSON-Schema-shaped dict and :func:`validate_manifest` interprets the
subset of it we use (types, required keys, recursion into properties),
so CI can reject a malformed manifest without installing ``jsonschema``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .telemetry import TelemetryRecorder

#: Version of the manifest file layout; bump on breaking changes.
MANIFEST_SCHEMA_VERSION = 1

#: JSON-Schema-shaped description of a manifest file.  ``spans`` is
#: recursive (children of the same shape); :func:`validate_manifest`
#: handles that recursion explicitly.
MANIFEST_SCHEMA: dict = {
    "type": "object",
    "required": [
        "schema_version", "version", "created_unix", "config",
        "spans", "counters", "gauges", "histograms", "cache",
    ],
    "properties": {
        "schema_version": {"type": "integer"},
        "version": {"type": "string"},
        "vcs_version": {"type": ["string", "null"]},
        "created_unix": {"type": "number"},
        "config": {
            "type": "object",
            "required": ["fingerprint", "description", "seed"],
            "properties": {
                "fingerprint": {"type": "string"},
                "description": {"type": "string"},
                "seed": {"type": "integer"},
            },
        },
        "spans": {
            "type": "object",
            "required": ["name", "seconds", "children"],
            "properties": {
                "name": {"type": "string"},
                "seconds": {"type": "number"},
                "children": {"type": "array"},
            },
        },
        "counters": {"type": "object"},
        "gauges": {"type": "object"},
        "histograms": {"type": "object"},
        "cache": {"type": "object"},
        # Optional (schema_version 1 manifests predate the artifact store,
        # the fault-tolerance layer, and the online serving layer).
        "artifacts": {"type": "object"},
        "supervisor": {"type": "object"},
        "service": {"type": "object"},
        "trace": {"type": "object"},
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "null": lambda v: v is None,
}


def _check_node(data, schema: dict, path: str, errors: List[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](data) for t in allowed):
            errors.append(f"{path}: expected {'/'.join(allowed)}, "
                          f"got {type(data).__name__}")
            return
    if isinstance(data, dict):
        for key in schema.get("required", ()):
            if key not in data:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in data:
                _check_node(data[key], sub, f"{path}.{key}", errors)


def _check_span_tree(node, path: str, errors: List[str]) -> None:
    span_schema = MANIFEST_SCHEMA["properties"]["spans"]
    _check_node(node, span_schema, path, errors)
    if isinstance(node, dict):
        for k, child in enumerate(node.get("children") or []):
            _check_span_tree(child, f"{path}.children[{k}]", errors)


def validate_manifest(data: dict) -> None:
    """Raise ``ValueError`` (listing every problem) if ``data`` is not a
    well-formed manifest; return silently when it is."""
    errors: List[str] = []
    _check_node(data, MANIFEST_SCHEMA, "manifest", errors)
    if isinstance(data, dict) and isinstance(data.get("spans"), dict):
        for k, child in enumerate(data["spans"].get("children") or []):
            _check_span_tree(child, f"manifest.spans.children[{k}]", errors)
    if errors:
        raise ValueError("invalid run manifest:\n" + "\n".join(errors))


def vcs_describe() -> Optional[str]:
    """``git describe --always --dirty`` of the source tree, if available.

    The probe must never take a run down with it: a missing ``git``
    binary, a sandbox that blocks subprocesses, or a hung ``git``
    (5-second timeout) all degrade to the literal string
    ``"unavailable"`` — recorded, not raised — while a working ``git``
    in a non-repository (exit code != 0) yields ``None``.
    """
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    if result.returncode != 0:
        return None
    described = result.stdout.strip()
    return described or None


def _store_stats(counters: Dict[str, int], prefix: str) -> dict:
    """Hit/miss rollup of one npz-directory store's counter namespace."""
    hits = counters.get(f"{prefix}.hit", 0)
    misses = counters.get(f"{prefix}.miss", 0)
    looked = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "corrupt": counters.get(f"{prefix}.corrupt", 0),
        "stores": counters.get(f"{prefix}.store", 0),
        "hit_rate": round(hits / looked, 4) if looked else None,
    }


def _cache_stats(counters: Dict[str, int]) -> dict:
    return _store_stats(counters, "cache")


def _supervisor_stats(snapshot: dict) -> dict:
    """Fault-tolerance rollup: what the supervised executor had to do.

    All zeros on a healthy run — the rollup exists so a chaos test (or
    an operator reading ``repro stats``) can assert recovery happened
    from the manifest alone.
    """
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    backoff = snapshot["histograms"].get("supervisor.backoff_seconds") or {}
    return {
        "retries": counters.get("supervisor.retries", 0),
        "requeued": counters.get("supervisor.requeued", 0),
        "timeouts": counters.get("supervisor.timeouts", 0),
        "pool_restarts": counters.get("supervisor.pool_restarts", 0),
        "skipped": counters.get("supervisor.skipped", 0),
        "jobs_skipped": counters.get("study.jobs.skipped", 0),
        "checkpoints_stored": counters.get("study.checkpoint.stored", 0),
        "checkpoints_resumed": counters.get("study.checkpoint.resumed", 0),
        "degraded": gauges.get("supervisor.degraded", 0.0) > 0.0,
        "backoff_seconds_total": round(backoff.get("sum", 0.0), 6),
    }


#: A ``{label}`` (or ``{label=a|b}``) placeholder in a rollup path.
_PLACEHOLDER = re.compile(r"\{(\w+)(?:=([\w|]+))?\}")

_SECTIONS = {"counter": "counters", "gauge": "gauges",
             "histogram": "histograms"}


def _reading(snapshot: dict, kind: str, name: str, reading: str):
    """One recorder metric, reduced the way a rollup entry asks."""
    if kind == "counter":
        return snapshot["counters"].get(name, 0)
    if kind == "gauge":
        value = snapshot["gauges"].get(name, 0.0)
        return value > 0.0 if reading == "flag" else int(value)
    hist = snapshot["histograms"].get(name) or {}
    count = hist.get("count", 0)
    if reading == "count":
        return count
    if reading == "sum":
        return round(hist.get("sum", 0.0), 6)
    if reading == "max":
        return int(hist.get("max", 0) or 0)
    return round(1000.0 * hist["sum"] / count, 3) if count else None


def _serving_rollups(snapshot: dict) -> dict:
    """The ``service`` and ``trace`` rollups: what the serving layer did.

    One loop over the serving metric declarations
    (:data:`repro.service.stats.FAMILIES`): each ``rollup`` entry names
    where a recorder metric lands and how it is read.  All zeros unless
    the process hosted a server (``repro serve`` writes a manifest at
    shutdown); the CI smoke checks assert request, batch, index and WAL
    counts from these blocks alone.
    """
    from ..service.stats import FAMILIES

    blocks: dict = {"service": {}, "trace": {}}
    for family in FAMILIES:
        section = snapshot[_SECTIONS[family.kind]]
        for entry in family.rollup:
            path, _, reading = entry.partition(":")
            *parents, leaf = path.split("/")
            node = blocks
            for key in parents:
                node = node.setdefault(key, {})
            placeholder = _PLACEHOLDER.fullmatch(leaf)
            if placeholder is None:
                name = next(t for t in family.telemetry if "{" not in t)
                node[leaf] = _reading(snapshot, family.kind, name, reading)
                continue
            label, listed = placeholder.groups()
            template = next(t for t in family.telemetry
                            if "{%s}" % label in t)
            prefix = template[:template.index("{")]
            values = (listed.split("|") if listed else family.values) or [
                name[len(prefix):] for name in sorted(section)
                if name.startswith(prefix)
            ]
            for value in values:
                node[value] = _reading(
                    snapshot, family.kind, template.format(**{label: value}),
                    reading,
                )
    service = blocks["service"]
    batches = service["batches"]
    service["mean_batch_size"] = (
        round(service["batched_jobs"] / batches, 3) if batches else None
    )
    return blocks


@dataclass
class RunManifest:
    """The end-of-run summary artifact.

    Build one with :meth:`from_recorder` after an instrumented run,
    persist it with :meth:`write`, read it back with :meth:`load`.
    """

    version: str
    config: dict
    spans: dict
    counters: Dict[str, int]
    gauges: Dict[str, float]
    histograms: dict
    cache: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    supervisor: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)
    vcs_version: Optional[str] = None
    created_unix: float = 0.0
    schema_version: int = MANIFEST_SCHEMA_VERSION

    @classmethod
    def from_recorder(cls, recorder: TelemetryRecorder, config) -> "RunManifest":
        """Assemble a manifest from a live recorder and a StudyConfig."""
        from .. import __version__

        snapshot = recorder.metrics.snapshot()
        return cls(
            version=__version__,
            vcs_version=vcs_describe(),
            created_unix=time.time(),
            config={
                "fingerprint": config.fingerprint(),
                "description": config.describe(),
                "seed": config.master_seed,
                "n_subjects": config.n_subjects,
                "matcher": config.matcher_name,
                "n_workers": config.n_workers,
            },
            spans=recorder.span_tree(),
            counters=snapshot["counters"],
            gauges=snapshot["gauges"],
            histograms=snapshot["histograms"],
            cache=_cache_stats(snapshot["counters"]),
            artifacts=_store_stats(snapshot["counters"], "artifacts"),
            supervisor=_supervisor_stats(snapshot),
            **_serving_rollups(snapshot),
        )

    def to_dict(self) -> dict:
        """Plain-dict (JSON-able) form, schema-ordered."""
        return dataclasses.asdict(self)

    def write(self, path) -> Path:
        """Write the manifest as indented JSON; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True,
                                     default=str) + "\n")
        return target

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        """Validate ``data`` and build a manifest from it."""
        validate_manifest(data)
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read and validate a manifest file."""
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(data)


def _render_span(node: dict, depth: int, lines: List[str]) -> None:
    lines.append(f"  {'  ' * depth}{node['name']:<{32 - 2 * depth}} "
                 f"{node['seconds']:>10.3f}s")
    for child in node.get("children", []):
        _render_span(child, depth + 1, lines)


def render_manifest(manifest: RunManifest) -> str:
    """Human-readable summary of a manifest (the ``repro stats`` view)."""
    lines: List[str] = []
    vcs = f" ({manifest.vcs_version})" if manifest.vcs_version else ""
    lines.append(f"run manifest — repro {manifest.version}{vcs}")
    lines.append(f"  config: {manifest.config.get('description', '?')}")
    lines.append(f"  fingerprint: {manifest.config.get('fingerprint', '?')}"
                 f"  seed: {manifest.config.get('seed', '?')}")
    lines.append("")
    lines.append("spans (wall clock)")
    _render_span(manifest.spans, 0, lines)
    if manifest.counters:
        lines.append("")
        lines.append("counters")
        for name in sorted(manifest.counters):
            lines.append(f"  {name:<40} {manifest.counters[name]:>12,}")
    if manifest.gauges:
        lines.append("")
        lines.append("gauges")
        for name in sorted(manifest.gauges):
            lines.append(f"  {name:<40} {manifest.gauges[name]:>12g}")
    if manifest.histograms:
        lines.append("")
        lines.append("histograms")
        lines.append(f"  {'name':<34} {'count':>9} {'mean':>10} "
                     f"{'min':>10} {'max':>10}")
        for name in sorted(manifest.histograms):
            h = manifest.histograms[name]
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            lines.append(
                f"  {name:<34} {h['count']:>9,} {mean:>9.4f}s "
                f"{h['min']:>9.4f}s {h['max']:>9.4f}s"
            )
    lines.append("")
    hit_rate = manifest.cache.get("hit_rate")
    rate_text = "n/a" if hit_rate is None else f"{100.0 * hit_rate:.1f}%"
    lines.append(
        f"cache: {manifest.cache.get('hits', 0)} hits, "
        f"{manifest.cache.get('misses', 0)} misses, "
        f"{manifest.cache.get('corrupt', 0)} corrupt, "
        f"{manifest.cache.get('stores', 0)} stores (hit rate {rate_text})"
    )
    if manifest.artifacts:
        art_rate = manifest.artifacts.get("hit_rate")
        art_text = "n/a" if art_rate is None else f"{100.0 * art_rate:.1f}%"
        lines.append(
            f"artifacts: {manifest.artifacts.get('hits', 0)} hits, "
            f"{manifest.artifacts.get('misses', 0)} misses, "
            f"{manifest.artifacts.get('corrupt', 0)} corrupt, "
            f"{manifest.artifacts.get('stores', 0)} stores "
            f"(hit rate {art_text})"
        )
    if manifest.supervisor:
        sup = manifest.supervisor
        degraded = " [degraded to serial]" if sup.get("degraded") else ""
        lines.append(
            f"supervisor: {sup.get('retries', 0)} retries, "
            f"{sup.get('requeued', 0)} requeued, "
            f"{sup.get('timeouts', 0)} timeouts, "
            f"{sup.get('pool_restarts', 0)} pool restarts, "
            f"{sup.get('skipped', 0)} batches skipped{degraded}"
        )
        if sup.get("checkpoints_stored") or sup.get("checkpoints_resumed"):
            lines.append(
                f"checkpoints: {sup.get('checkpoints_stored', 0)} stored, "
                f"{sup.get('checkpoints_resumed', 0)} resumed"
            )
    if manifest.service and manifest.service.get("requests"):
        svc = manifest.service
        mean_size = svc.get("mean_batch_size")
        size_text = "n/a" if mean_size is None else f"{mean_size:g}"
        latency = svc.get("mean_latency_ms")
        latency_text = "n/a" if latency is None else f"{latency:g} ms"
        lines.append(
            f"service: {svc.get('requests', 0)} requests "
            f"({svc.get('enroll', 0)} enroll, {svc.get('verify', 0)} verify, "
            f"{svc.get('identify', 0)} identify), "
            f"{svc.get('accepted', 0)} accepted / "
            f"{svc.get('rejected', 0)} rejected, "
            f"{svc.get('enroll_rejected', 0)} quality-rejected"
        )
        lines.append(
            f"  batching: {svc.get('batches', 0)} batches, "
            f"{svc.get('batched_jobs', 0)} jobs "
            f"(mean size {size_text}, max {svc.get('max_batch_size', 0)}), "
            f"{svc.get('overloads', 0)} overloads, "
            f"{svc.get('deadline_exceeded', 0)} deadline-exceeded, "
            f"mean latency {latency_text}"
        )
        workers = svc.get("workers") or {}
        if workers.get("configured"):
            degraded = " [degraded to in-process]" if workers.get("degraded") else ""
            lines.append(
                f"  workers: {workers.get('alive', 0)}/"
                f"{workers.get('configured', 0)} alive, "
                f"{workers.get('dispatches', 0)} dispatches "
                f"({workers.get('dispatched_jobs', 0)} jobs), "
                f"{workers.get('respawns', 0)} respawns{degraded}"
            )
        index = svc.get("index") or {}
        if index.get("searches"):
            modes = ", ".join(
                f"{count} {mode}"
                for mode, count in sorted(index["searches"].items())
            )
            lines.append(
                f"  index: {modes} searches, "
                f"{index.get('candidates_scored', 0)} candidates scored, "
                f"prefilter {index.get('prefilter_seconds_total', 0.0):g}s total"
            )
        wal = svc.get("wal") or {}
        if wal.get("appends") or wal.get("replayed"):
            healed = ""
            if wal.get("torn_truncated") or wal.get("corrupt_dropped"):
                healed = (
                    f" [{wal.get('torn_truncated', 0)} torn tails truncated, "
                    f"{wal.get('corrupt_dropped', 0)} corrupt records dropped]"
                )
            lines.append(
                f"  wal: {wal.get('appends', 0)} appends "
                f"({wal.get('bytes', 0)} bytes), "
                f"{wal.get('rotations', 0)} rotations, "
                f"{wal.get('checkpoints', 0)} checkpoints, "
                f"{wal.get('replayed', 0)} replayed "
                f"({wal.get('reapplied', 0)} reapplied){healed}"
            )
        trace = manifest.trace or {}
        if trace.get("requests_traced"):
            def _ms(key: str) -> str:
                value = trace.get(key)
                return "n/a" if value is None else f"{value:g} ms"

            lines.append(
                f"  tracing: {trace.get('requests_traced', 0)} traced, "
                f"{trace.get('slow_requests', 0)} slow; mean phases "
                f"queue_wait {_ms('mean_queue_wait_ms')}, "
                f"batch_wait {_ms('mean_batch_wait_ms')}, "
                f"match {_ms('mean_match_ms')}"
            )
    return "\n".join(lines)


__all__ = [
    "RunManifest",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "validate_manifest",
    "render_manifest",
    "vcs_describe",
]
