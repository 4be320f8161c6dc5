"""On-disk memoization of expensive study artifacts.

Paper-scale score generation takes minutes; the benchmark harness and the
analysis notebooks re-run the same configurations repeatedly.
:class:`NpzDirectory` is the shared persistence primitive — a directory
of named numpy-array bundles with atomic writes, corruption-as-miss
semantics and telemetry counters — and :class:`ScoreCache` is its
score-set instantiation.  The artifact store
(:mod:`repro.runtime.artifacts`) builds its content-addressed tiers on
the same primitive, so both cache layers share one battle-tested format.

The format is deliberately simple — one ``.npz`` file per entry — so a
corrupt entry can be deleted by hand and nothing else is affected.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import zipfile
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from . import faults
from .errors import CacheError
from .telemetry import get_logger, get_recorder

_KEY_RE = re.compile(r"^[A-Za-z0-9._-]+$")

#: Everything np.load raises for a truncated/garbage entry: OSError for
#: I/O trouble, ValueError for non-npz bytes, BadZipFile for a file that
#: has a zip header but a mangled archive (the classic crashed-write).
_CORRUPT_ENTRY_ERRORS = (OSError, ValueError, zipfile.BadZipFile)

_log = get_logger("cache")


def _decode_meta(raw: np.ndarray) -> Optional[dict]:
    """The JSON ``__meta__`` member of a bundle (``None`` if unreadable)."""
    try:
        return json.loads(raw.tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


class NpzDirectory:
    """A directory of named numpy-array bundles.

    Parameters
    ----------
    directory:
        Entry root; created on first write.  ``None`` produces a disabled
        store whose :meth:`load` always misses — callers never need to
        branch on whether persistence is configured.
    metric_prefix:
        Namespace for the telemetry counters this store emits
        (``{prefix}.hit``, ``{prefix}.miss``, ``{prefix}.corrupt``,
        ``{prefix}.store``, ``{prefix}.bytes_read``,
        ``{prefix}.bytes_written``).  The score cache counts under
        ``cache.*``, the artifact store under ``artifacts.*``, so one
        manifest separates the two layers.
    readonly:
        A read-only view over a directory another process owns (a WAL
        follower reading the primary's gallery shards): :meth:`store`
        and :meth:`invalidate` raise, and a corrupt entry is still a
        miss but is *not* unlinked — never mutate a store you don't own.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        metric_prefix: str = "cache",
        readonly: bool = False,
    ) -> None:
        self._root: Optional[Path] = Path(directory) if directory is not None else None
        self._prefix = metric_prefix
        self._readonly = bool(readonly)

    @property
    def enabled(self) -> bool:
        """Whether this store persists anything."""
        return self._root is not None

    @property
    def root(self) -> Optional[Path]:
        """The backing directory (``None`` when disabled)."""
        return self._root

    def _count(self, event: str, value: int = 1) -> None:
        get_recorder().count(f"{self._prefix}.{event}", value)

    def _path_for(self, key: str) -> Path:
        if self._root is None:
            raise CacheError("cache is disabled; no path exists")
        if not _KEY_RE.match(key):
            raise CacheError(
                f"cache key {key!r} contains characters outside [A-Za-z0-9._-]"
            )
        return self._root / f"{key}.npz"

    def store(self, key: str, arrays: Dict[str, np.ndarray], meta: Optional[dict] = None) -> None:
        """Persist ``arrays`` (and optional JSON-able ``meta``) under ``key``.

        Writes are atomic (write to a temp file, then rename), so a
        crashed run never leaves a truncated entry behind.
        """
        if self._root is None:
            return
        if self._readonly:
            raise CacheError(f"store is read-only; cannot write {key!r}")
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(arrays)
        if meta is not None:
            payload["__meta__"] = np.frombuffer(
                json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
            )
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez_compressed(handle, **payload)
            os.replace(tmp_name, path)
            faults.corrupt_hook(path, key)
            self._count("store")
            try:
                self._count("bytes_written", path.stat().st_size)
            except OSError:  # pragma: no cover - entry raced away
                pass
        except OSError as exc:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise CacheError(f"could not write cache entry {key!r}: {exc}") from exc

    def _read(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Every member of ``key``'s bundle (``__meta__`` included).

        Counts the hit/miss/corrupt/bytes_read telemetry; a corrupt
        entry is a miss, removed unless the store is read-only.
        """
        if self._root is None:
            return None
        path = self._path_for(key)
        if not path.exists():
            self._count("miss")
            return None
        try:
            size = path.stat().st_size
            with np.load(path) as bundle:
                arrays = {name: bundle[name] for name in bundle.files}
        except _CORRUPT_ENTRY_ERRORS:
            self._count("corrupt")
            self._count("miss")
            if self._readonly:
                _log.warning(
                    "corrupt cache entry skipped (read-only store)",
                    extra={"data": {"key": key}},
                )
                return None
            _log.warning(
                "corrupt cache entry removed", extra={"data": {"key": key}}
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._count("hit")
        self._count("bytes_read", size)
        return arrays

    def load(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Return the arrays stored under ``key``, or ``None`` on a miss.

        A corrupt entry is treated as a miss (and removed) rather than an
        error: the cache is an optimization, never a source of truth.
        """
        arrays = self._read(key)
        if arrays is not None:
            arrays.pop("__meta__", None)
        return arrays

    def load_entry(
        self, key: str
    ) -> Optional[Tuple[Dict[str, np.ndarray], Optional[dict]]]:
        """``(arrays, meta)`` from one read of ``key``, or ``None`` on a miss.

        :meth:`load` and :meth:`load_meta` together, opening and parsing
        the bundle once; counts exactly what :meth:`load` counts.
        """
        arrays = self._read(key)
        if arrays is None:
            return None
        raw = arrays.pop("__meta__", None)
        return arrays, None if raw is None else _decode_meta(raw)

    def load_meta(self, key: str) -> Optional[dict]:
        """Return the JSON metadata stored alongside ``key``, if any."""
        if self._root is None:
            return None
        path = self._path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as bundle:
                if "__meta__" not in bundle.files:
                    return None
                raw = bundle["__meta__"]
        except _CORRUPT_ENTRY_ERRORS:
            self._count("corrupt")
            return None
        return _decode_meta(raw)

    def invalidate(self, key: str) -> bool:
        """Remove ``key`` from the cache; returns whether it existed."""
        if self._root is None:
            return False
        if self._readonly:
            raise CacheError(f"store is read-only; cannot invalidate {key!r}")
        path = self._path_for(key)
        if path.exists():
            path.unlink()
            return True
        return False

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed."""
        if self._root is None or not self._root.exists():
            return 0
        removed = 0
        for path in self._root.glob("*.npz"):
            path.unlink()
            removed += 1
        return removed

    def stats(self) -> Dict[str, int]:
        """Current on-disk footprint: ``{"entries": n, "bytes": total}``."""
        if self._root is None or not self._root.exists():
            return {"entries": 0, "bytes": 0}
        entries = 0
        total = 0
        for path in self._root.glob("*.npz"):
            entries += 1
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - entry raced away
                pass
        return {"entries": entries, "bytes": total}


class ScoreCache(NpzDirectory):
    """The score-set cache: named numpy bundles under ``cache.*`` metrics.

    Keys are built by the study orchestrator from the config/protocol
    fingerprints plus the scenario and device-pair shard, so a score set
    is computed at most once per configuration.
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        super().__init__(directory, metric_prefix="cache")


__all__ = ["NpzDirectory", "ScoreCache"]
