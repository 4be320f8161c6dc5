"""Prometheus text exposition for the serving layer, dependency-free.

Two halves, both stdlib-only:

* :func:`render_exposition` — renders every serving metric family
  declared in :data:`repro.service.stats.FAMILIES` and — when telemetry
  is enabled — every metric in the process-wide
  :class:`~repro.runtime.telemetry.MetricsRegistry` (as
  ``repro_telemetry_*``), in the Prometheus text format (``# HELP`` /
  ``# TYPE`` / samples, histograms with cumulative ``le`` buckets
  ending in ``+Inf``).  The server mounts it at ``GET /metrics`` with
  the standard ``text/plain; version=0.0.4`` content type, so a stock
  Prometheus scraper can point at ``repro serve`` unmodified.

* :func:`parse_exposition` — a *strict* parser for the same format:
  metric-name and label grammar, TYPE-before-sample ordering, duplicate
  sample detection, and histogram invariants (cumulative buckets,
  ``+Inf`` bucket equal to ``_count``).  The test suite and the CI
  smoke job run every scrape through it, so a malformed exposition line
  is a failing build rather than a silently dropped scrape.

:func:`scraped` reads one declared family back out of a parsed scrape
(``repro top`` works that way), and :func:`catalogue_rows` generates
the metric tables of ``docs/observability.md``.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from ..runtime.telemetry import get_recorder
from .stats import FAMILIES, Family, ServiceStats

#: The content type Prometheus' text exposition format 0.0.4 declares.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value != value:  # NaN
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _sample(name: str, labels: tuple, value: float) -> str:
    """One sample line; ``labels`` is a tuple of ``(name, value)`` pairs."""
    text = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in labels)
    if text:
        name = f"{name}{{{text}}}"
    return f"{name} {_format_value(value)}"


def _histogram(lines: List[str], name: str, labels: tuple, bounds,
               hist: dict) -> None:
    """Emit one histogram series (cumulative ``le`` buckets).

    ``hist["buckets"]`` is non-cumulative with a final overflow slot, as
    :class:`repro.runtime.telemetry.MetricsRegistry` snapshots it.
    """
    running = 0
    for bound, bucket in zip(bounds, hist["buckets"]):
        running += bucket
        le = (("le", _format_value(float(bound))),)
        lines.append(_sample(f"{name}_bucket", labels + le, running))
    lines.append(_sample(f"{name}_bucket", labels + (("le", "+Inf"),),
                         hist["count"]))
    lines.append(_sample(f"{name}_sum", labels, hist["sum"]))
    lines.append(_sample(f"{name}_count", labels, hist["count"]))


def _family_lines(lines: List[str], name: str, kind: str, help_text: str
                  ) -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def _sanitize_name(raw: str) -> Optional[str]:
    """A telemetry metric name as a valid Prometheus name, or ``None``."""
    candidate = raw.replace(".", "_").replace("-", "_")
    return candidate if _NAME_RE.match(candidate) else None


def render_exposition(stats: ServiceStats, **sources) -> str:
    """The full ``/metrics`` payload for one server.

    Every declared family, in table order: recorded ones from
    ``stats``, collected ones from ``sources`` — the server passes
    ``gallery_devices``, ``queue_depth``, ``corrupt_dropped``, ``wal``,
    ``replication``, ``auth_enabled``, ``limits`` and ``workers`` — and
    a family whose source is not given is left out.  The telemetry
    recorder's metrics follow when telemetry is enabled.
    """
    lines: List[str] = []
    named = [family for family in FAMILIES if family.name is not None]
    for family, series in stats.read(sources, named):
        _family_lines(lines, family.name, family.kind, family.help)
        if family.total:
            lines.append(_sample(family.name, (), sum(series.values())))
        for labels, value in sorted(series.items()):
            if family.kind == "histogram":
                _histogram(lines, family.name, labels, family.buckets, value)
            else:
                lines.append(_sample(family.name, labels, value))
    _render_recorder_metrics(lines)
    return "\n".join(lines) + "\n"


def _render_recorder_metrics(lines: List[str]) -> None:
    """Pass the live telemetry registry through, ``repro_telemetry_``-prefixed.

    Only runs when telemetry is enabled; the declared families above
    carry the serving story by themselves.
    """
    recorder = get_recorder()
    if not recorder.active:
        return
    snap = recorder.metrics.snapshot()
    for name, value in sorted(snap["counters"].items()):
        prom = _sanitize_name(f"repro_telemetry_{name}_total")
        if prom is None:
            continue
        _family_lines(lines, prom, "counter", f"Telemetry counter {name}.")
        lines.append(_sample(prom, (), value))
    for name, value in sorted(snap["gauges"].items()):
        prom = _sanitize_name(f"repro_telemetry_{name}")
        if prom is None:
            continue
        _family_lines(lines, prom, "gauge", f"Telemetry gauge {name}.")
        lines.append(_sample(prom, (), value))
    for name, hist in sorted(snap["histograms"].items()):
        prom = _sanitize_name(f"repro_telemetry_{name}")
        if prom is None:
            continue
        _family_lines(lines, prom, "histogram", f"Telemetry histogram {name}.")
        _histogram(lines, prom, (), snap["bucket_bounds"], hist)


def scraped(families: Dict[str, dict], family: Family) -> Dict[tuple, float]:
    """One declared family's samples in a :func:`parse_exposition` result.

    Returns ``{label values: value}`` — the values in the family's label
    order, ``()`` for an unlabeled sample; empty when the family is
    absent.
    """
    parsed = families.get(family.name, {"samples": []})
    return {
        tuple(labels[label] for label in family.labels if label in labels):
        value
        for name, labels, value in parsed["samples"]
        if name == family.name
    }


def _placeholders(template: str) -> str:
    return re.sub(r"\{(\w+)\}", r"<\1>", template)


def catalogue_rows() -> Tuple[List[str], List[str]]:
    """The generated rows of the two metric tables in
    ``docs/observability.md``: the ``service.*`` / ``index.*`` recorder
    metrics, and the ``repro_*`` families of ``/metrics``."""
    telemetry = [
        f"| `{_placeholders(name)}` | {family.kind} | {family.help} |"
        for family in FAMILIES
        for name in family.telemetry
        if name.startswith(("service.", "index."))
    ]
    exposition = []
    for family in FAMILIES:
        if family.name is None:
            continue
        labels = [f"`{label}`" for label in family.labels]
        if family.values:
            labels[0] += " (" + "/".join(f"`{v}`" for v in family.values) + ")"
        if family.total:
            labels.insert(0, "— (total)")
        exposition.append(
            f"| `{family.name}` | {family.kind} | "
            f"{', '.join(labels) or '—'} | {family.help} |"
        )
    return telemetry, exposition


# ----------------------------------------------------------------------
# Strict exposition-format parser (test helper; CI runs every scrape
# through it)
# ----------------------------------------------------------------------
class ExpositionParseError(ValueError):
    """The scraped payload violates the text exposition format."""


def _parse_value(text: str, where: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ExpositionParseError(f"{where}: unparsable value {text!r}")


def _parse_labels(raw: str, where: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    position = 0
    while position < len(raw):
        match = _LABEL_PAIR_RE.match(raw, position)
        if match is None:
            raise ExpositionParseError(f"{where}: malformed labels {raw!r}")
        name = match.group("name")
        if not _LABEL_RE.match(name):
            raise ExpositionParseError(f"{where}: bad label name {name!r}")
        if name in labels:
            raise ExpositionParseError(f"{where}: duplicate label {name!r}")
        value = match.group("value")
        labels[name] = (
            value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        position = match.end()
    return labels


def _base_family(name: str) -> str:
    """The family a sample belongs to (strips histogram suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_exposition(text: str) -> Dict[str, dict]:
    """Parse (and strictly validate) a text-format exposition payload.

    Returns ``{family: {"type": ..., "help": ..., "samples":
    [(name, labels, value), ...]}}``.  Raises
    :class:`ExpositionParseError` on any violation: bad metric or label
    grammar, samples before their ``# TYPE``, duplicate series,
    non-cumulative histogram buckets, missing ``+Inf`` bucket, or a
    ``+Inf`` bucket that disagrees with ``_count``.
    """
    families: Dict[str, dict] = {}
    seen_series = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        if not line:
            continue
        if line != line.strip():
            raise ExpositionParseError(f"{where}: stray whitespace: {line!r}")
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise ExpositionParseError(f"{where}: malformed HELP line")
            name = parts[2]
            if not _NAME_RE.match(name):
                raise ExpositionParseError(f"{where}: bad metric name {name!r}")
            families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )["help"] = parts[3]
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ExpositionParseError(f"{where}: malformed TYPE line")
            name, kind = parts[2], parts[3]
            if not _NAME_RE.match(name):
                raise ExpositionParseError(f"{where}: bad metric name {name!r}")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ExpositionParseError(f"{where}: unknown type {kind!r}")
            family = families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )
            if family["type"] is not None:
                raise ExpositionParseError(f"{where}: duplicate TYPE for {name}")
            if family["samples"]:
                raise ExpositionParseError(
                    f"{where}: TYPE for {name} after its samples"
                )
            family["type"] = kind
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ExpositionParseError(f"{where}: unparsable sample {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels") or "", where)
        value = _parse_value(match.group("value"), where)
        family_name = _base_family(name)
        family = families.get(family_name)
        if family is None or family["type"] is None:
            # Histogram suffix stripping may not apply (plain metric
            # whose name ends in _count); fall back to the full name.
            family = families.get(name)
            family_name = name
        if family is None or family["type"] is None:
            raise ExpositionParseError(
                f"{where}: sample {name!r} before its # TYPE"
            )
        series_key = (name, tuple(sorted(labels.items())))
        if series_key in seen_series:
            raise ExpositionParseError(
                f"{where}: duplicate series {name}{labels!r}"
            )
        seen_series.add(series_key)
        family["samples"].append((name, labels, value))
    _validate_histograms(families)
    return families


def _validate_histograms(families: Dict[str, dict]) -> None:
    for family_name, family in families.items():
        if family["type"] != "histogram":
            continue
        series: Dict[Tuple, List[Tuple[float, float]]] = {}
        counts: Dict[Tuple, float] = {}
        for name, labels, value in family["samples"]:
            key = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            if name == f"{family_name}_bucket":
                if "le" not in labels:
                    raise ExpositionParseError(
                        f"{family_name}: bucket sample missing 'le'"
                    )
                bound = _parse_value(labels["le"], family_name)
                series.setdefault(key, []).append((bound, value))
            elif name == f"{family_name}_count":
                counts[key] = value
        for key, buckets in series.items():
            ordered = sorted(buckets, key=lambda item: item[0])
            cumulative = [count for _, count in ordered]
            if cumulative != sorted(cumulative):
                raise ExpositionParseError(
                    f"{family_name}{dict(key)!r}: buckets not cumulative"
                )
            if not ordered or ordered[-1][0] != math.inf:
                raise ExpositionParseError(
                    f"{family_name}{dict(key)!r}: missing +Inf bucket"
                )
            if key in counts and ordered[-1][1] != counts[key]:
                raise ExpositionParseError(
                    f"{family_name}{dict(key)!r}: +Inf bucket "
                    f"{ordered[-1][1]} != count {counts[key]}"
                )


def sample_value(
    families: Dict[str, dict],
    name: str,
    labels: Optional[Dict[str, str]] = None,
) -> Optional[float]:
    """Convenience: one sample's value from a parsed exposition.

    ``name`` is the full sample name (e.g. ``repro_requests_total`` or
    ``repro_batch_size_count``); ``labels`` must match exactly.
    """
    wanted = labels or {}
    family = families.get(_base_family(name)) or families.get(name)
    if family is None:
        return None
    for sample_name, sample_labels, value in family["samples"]:
        if sample_name == name and sample_labels == wanted:
            return value
    return None


__all__ = [
    "EXPOSITION_CONTENT_TYPE",
    "ExpositionParseError",
    "render_exposition",
    "parse_exposition",
    "sample_value",
    "scraped",
    "catalogue_rows",
]
