"""Persistent content-addressed artifact store.

Score generation got fast (batched matching, sharded score cache), but
every cold run still paid the full acquisition tax: synthesize the
population, run every subject through all five sensor models, render,
extract, assess quality.  All of that work is a pure function of the
seeds and the pipeline code, so it is cacheable *forever* — not per
process, but on disk, shared by every run, notebook, benchmark and CLI
invocation that asks for the same configuration.

:class:`ArtifactStore` is that cache.  It is **content-addressed**:
entries are keyed by a :func:`canonical_digest` of everything that
determines the artifact's bytes —

* the population seed and the subject's sampled traits,
* the sensor configurations (full device profiles, signature magnitudes),
* the protocol settings (device order, sets, gating, ablations),
* a **code-version salt** (:data:`CODE_SALT`) bumped whenever the
  acquisition pipeline's semantics change, so stale artifacts from an
  older pipeline can never be served.

Entries are grouped into **tiers**, one subdirectory each:

==============  ======================================================
tier            contents
==============  ======================================================
`impressions`   acquired :class:`~repro.sensors.base.Impression` shards
                (one entry per subject session)
`images`        rendered ridge images (the holographic model's output)
`templates`     minutiae templates extracted from rendered images
`quality`       per-impression NFIQ levels and quality feature vectors
==============  ======================================================

Every tier shares the :class:`~repro.runtime.cache.NpzDirectory`
persistence primitive (atomic writes, corruption treated as a miss) and
counts under the ``artifacts.*`` telemetry namespace, so a run manifest
shows exactly how much acquisition work the store absorbed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from .cache import NpzDirectory
from .errors import CacheError

#: Code-version salt folded into every digest.  Bump whenever the
#: acquisition pipeline changes in a way that alters artifact contents
#: (sensor models, protocol semantics, codec layout); existing stores
#: then read as cold instead of serving stale bytes.
CODE_SALT = "repro-artifacts-v1"

#: The artifact tiers, in pipeline order.
TIERS = ("impressions", "images", "templates", "quality")


def _json_default(value):
    """Canonical-JSON fallback: dataclasses, numpy scalars and arrays."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not digestable")


def canonical_digest(payload: object, *, salt: str = CODE_SALT) -> str:
    """Deterministic hex digest of a JSON-able payload.

    The payload is serialized as canonical JSON (sorted keys, no
    whitespace; tuples become lists, dataclasses become dicts, numpy
    scalars become Python numbers) and hashed together with ``salt``.
    Identical payloads digest identically across processes, platforms
    and Python versions; any field change produces a new address.
    """
    data = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_json_default
    )
    digest = hashlib.blake2b(digest_size=16)
    digest.update(salt.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(data.encode("utf-8"))
    return digest.hexdigest()


class ArtifactStore:
    """A tiered, content-addressed directory of acquisition artifacts.

    Parameters
    ----------
    directory:
        Store root; tier subdirectories are created on first write.
        ``None`` produces a disabled store whose :meth:`load` always
        misses, so callers never branch on whether persistence is
        configured (mirroring :class:`~repro.runtime.cache.ScoreCache`).
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self._root: Optional[Path] = Path(directory) if directory is not None else None
        self._tiers: Dict[str, NpzDirectory] = {
            tier: NpzDirectory(
                self._root / tier if self._root is not None else None,
                metric_prefix="artifacts",
            )
            for tier in TIERS
        }

    @property
    def enabled(self) -> bool:
        """Whether this store persists anything."""
        return self._root is not None

    @property
    def root(self) -> Optional[Path]:
        """The store root (``None`` when disabled)."""
        return self._root

    def _tier(self, tier: str) -> NpzDirectory:
        try:
            return self._tiers[tier]
        except KeyError:
            raise CacheError(
                f"unknown artifact tier {tier!r}; expected one of {TIERS}"
            ) from None

    def store(
        self,
        tier: str,
        digest: str,
        arrays: Dict[str, np.ndarray],
        meta: Optional[dict] = None,
    ) -> None:
        """Persist ``arrays`` under ``digest`` in ``tier`` (atomic write)."""
        self._tier(tier).store(digest, arrays, meta=meta)

    def load(self, tier: str, digest: str) -> Optional[Dict[str, np.ndarray]]:
        """The arrays addressed by ``digest``, or ``None`` on a miss.

        Corrupt or truncated entries are removed and treated as misses
        (counted under ``artifacts.corrupt``): the store is an
        optimization, never a source of truth — a miss just means the
        artifact is rebuilt from its seeds.
        """
        return self._tier(tier).load(digest)

    def load_meta(self, tier: str, digest: str) -> Optional[dict]:
        """The JSON metadata stored alongside ``digest``, if any."""
        return self._tier(tier).load_meta(digest)

    def has(self, tier: str, digest: str) -> bool:
        """Whether ``digest`` exists in ``tier`` (no read, no counters)."""
        directory = self._tier(tier)
        return directory.enabled and directory.path_for(digest).exists()

    def invalidate(self, tier: str, digest: str) -> bool:
        """Remove one entry; returns whether it existed."""
        return self._tier(tier).invalidate(digest)

    def clear(self, tier: Optional[str] = None) -> int:
        """Remove every entry (of ``tier``, or of all tiers); returns a count."""
        if tier is not None:
            return self._tier(tier).clear()
        return sum(directory.clear() for directory in self._tiers.values())

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier on-disk footprint plus a ``total`` rollup."""
        per_tier = {tier: d.stats() for tier, d in self._tiers.items()}
        per_tier["total"] = {
            "entries": sum(s["entries"] for s in per_tier.values()),
            "bytes": sum(s["bytes"] for s in per_tier.values()),
        }
        return per_tier


__all__ = ["ArtifactStore", "canonical_digest", "CODE_SALT", "TIERS"]
