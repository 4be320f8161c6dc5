"""On-disk memoization of expensive study artifacts.

Paper-scale score generation takes minutes; the benchmark harness and the
analysis notebooks re-run the same configurations repeatedly.
:class:`NpzDirectory` is the shared persistence primitive — a directory
of named numpy-array bundles with atomic writes, corruption-as-miss
semantics and telemetry counters — and :class:`ScoreCache` is its
score-set instantiation.  The artifact store
(:mod:`repro.runtime.artifacts`) builds its content-addressed tiers on
the same primitive, so both cache layers share one battle-tested format.

One file per entry, so a corrupt entry can be deleted by hand and
nothing else is affected.  Each file is one flat bundle, written in one
``write`` and read in one ``read``::

    magic "\\x89RB1" | CRC32 of the rest (u32) | header length (u32) | zlib-1 payload

The payload is a JSON header (``meta`` and each array's name,
``dtype.str`` and shape) followed by the arrays' raw C-order bytes.  A
bundle whose magic, CRC or exact length does not check out is corrupt.
Entries keep their ``<key>.npz`` names, and a file that starts with the
zip magic is still decoded by :func:`numpy.load`, so stores written in
the older ``savez_compressed`` layout load unchanged until rewritten.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import struct
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import faults
from .errors import CacheError
from .telemetry import get_logger, get_recorder

_KEY_RE = re.compile(r"^[A-Za-z0-9._-]+$")

_SUFFIX = ".npz"
_MAGIC = b"\x89RB1"
_ZIP_MAGIC = b"PK\x03\x04"
#: magic, CRC32 of everything after the CRC field, JSON header length.
_PREFIX = struct.Struct("<4sII")
_CRC_FROM = 8

#: Everything np.load raises for a truncated/garbage legacy entry:
#: OSError for I/O trouble, ValueError for non-npz bytes, BadZipFile for
#: a mangled archive, EOFError/zlib.error for a torn member.
_CORRUPT_ENTRY_ERRORS = (OSError, ValueError, EOFError, zlib.error, zipfile.BadZipFile)

Entry = Tuple[Dict[str, np.ndarray], Optional[dict]]

_log = get_logger("cache")


class _CorruptEntry(Exception):
    """A stored bundle failed its magic, CRC, length or decode check."""


def _encode(arrays: Dict[str, np.ndarray], meta: Optional[dict]) -> bytes:
    """One bundle holding ``arrays`` and ``meta`` (see the module docs)."""
    specs = []
    blobs = []
    for name, value in arrays.items():
        array = np.asarray(value)
        if array.dtype.hasobject or np.dtype(array.dtype.str) != array.dtype:
            raise CacheError(
                f"array {name!r} has dtype {array.dtype}, which a bundle cannot hold"
            )
        specs.append([name, array.dtype.str, list(array.shape)])
        blobs.append(array.tobytes())
    header = {"arrays": specs}
    if meta is not None:
        header["meta"] = meta
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    rest = struct.pack("<I", len(head)) + zlib.compress(head + b"".join(blobs), 1)
    return _MAGIC + struct.pack("<I", zlib.crc32(rest)) + rest


def _decode(data: bytes) -> Entry:
    """``(arrays, meta)`` from a bundle's bytes, or :class:`_CorruptEntry`.

    Every array owns writable memory, as :func:`numpy.load`'s do.
    """
    if data[:4] == _ZIP_MAGIC:
        return _decode_npz(data)
    if len(data) < _PREFIX.size:
        raise _CorruptEntry("short bundle")
    magic, crc, head_len = _PREFIX.unpack_from(data)
    view = memoryview(data)
    if magic != _MAGIC or zlib.crc32(view[_CRC_FROM:]) != crc:
        raise _CorruptEntry("bad magic or CRC")
    try:
        inflater = zlib.decompressobj()
        raw = inflater.decompress(view[_PREFIX.size:])
        if not inflater.eof or inflater.unused_data:
            raise _CorruptEntry("payload length mismatch")
        header = json.loads(raw[:head_len])
        arrays = {}
        offset = head_len
        for name, dtype, shape in header["arrays"]:
            dtype = np.dtype(dtype)
            count = math.prod(shape)
            size = count * dtype.itemsize
            arrays[name] = (
                np.frombuffer(raw, dtype, count, offset).reshape(shape).copy()
                if size else np.zeros(shape, dtype)
            )
            offset += size
    except (zlib.error, ValueError, TypeError, KeyError) as exc:
        raise _CorruptEntry(str(exc)) from exc
    if offset != len(raw):
        raise _CorruptEntry("payload length mismatch")
    return arrays, header.get("meta")


def _decode_npz(data: bytes) -> Entry:
    """``(arrays, meta)`` from a bundle in the older ``.npz`` zip layout."""
    try:
        with np.load(io.BytesIO(data)) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
    except _CORRUPT_ENTRY_ERRORS as exc:
        raise _CorruptEntry(str(exc)) from exc
    raw = arrays.pop("__meta__", None)
    if raw is None:
        return arrays, None
    try:
        return arrays, json.loads(raw.tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return arrays, None


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

    def path_for(self, key: str) -> Path:
        """Where ``key``'s entry lives (whether or not it exists)."""
        if self._root is None:
            raise CacheError("cache is disabled; no path exists")
        if not _KEY_RE.match(key):
            raise CacheError(
                f"cache key {key!r} contains characters outside [A-Za-z0-9._-]"
            )
        return self._root / f"{key}{_SUFFIX}"

    def keys(self) -> List[str]:
        """The keys of every entry on disk, sorted."""
        if self._root is None or not self._root.exists():
            return []
        return sorted(path.stem for path in self._root.glob(f"*{_SUFFIX}"))

    def store(self, key: str, arrays: Dict[str, np.ndarray], meta: Optional[dict] = None) -> None:
        """Persist ``arrays`` (and optional JSON-able ``meta``) under ``key``.

        Writes are atomic (write to a temp file, then rename), so a
        crashed run never leaves a truncated entry behind.  Object-dtype
        and structured arrays raise :class:`~repro.runtime.errors.CacheError`.
        """
        if self._root is None:
            return
        if self._readonly:
            raise CacheError(f"store is read-only; cannot write {key!r}")
        path = self.path_for(key)
        blob = _encode(arrays, meta)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=f"{_SUFFIX}.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
            faults.corrupt_hook(path, key)
        except OSError as exc:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise CacheError(f"could not write cache entry {key!r}: {exc}") from exc
        self._count("store")
        self._count("bytes_written", len(blob))

    def load_entry(self, key: str) -> Optional[Entry]:
        """``(arrays, meta)`` from one read of ``key``, or ``None`` on a miss.

        Counts the hit/miss/corrupt/bytes_read telemetry.  A corrupt
        entry is treated as a miss (and removed unless the store is
        read-only) rather than an error.
        """
        if self._root is None:
            return None
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self._count("miss")
            return None
        except OSError:
            data = b""  # unreadable: decodes as corrupt below
        try:
            entry = _decode(data)
        except _CorruptEntry:
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
        self._count("bytes_read", len(data))
        return entry

    def load(self, key: str) -> Optional[Dict[str, np.ndarray]]:
        """Return the arrays stored under ``key``, or ``None`` on a miss.

        Counts exactly what :meth:`load_entry` counts: the cache is an
        optimization, never a source of truth.
        """
        entry = self.load_entry(key)
        return None if entry is None else entry[0]

    def load_meta(self, key: str) -> Optional[dict]:
        """Return the JSON metadata stored alongside ``key``, if any.

        Counts only ``corrupt`` and leaves a corrupt entry in place.
        """
        if self._root is None:
            return None
        try:
            return _decode(self.path_for(key).read_bytes())[1]
        except FileNotFoundError:
            return None
        except (OSError, _CorruptEntry):
            self._count("corrupt")
            return None

    def invalidate(self, key: str) -> bool:
        """Remove ``key`` from the cache; returns whether it existed."""
        if self._root is None:
            return False
        if self._readonly:
            raise CacheError(f"store is read-only; cannot invalidate {key!r}")
        path = self.path_for(key)
        if path.exists():
            path.unlink()
            return True
        return False

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed."""
        if self._root is None or not self._root.exists():
            return 0
        removed = 0
        for path in self._root.glob(f"*{_SUFFIX}"):
            path.unlink()
            removed += 1
        return removed

    def stats(self) -> Dict[str, int]:
        """Current on-disk footprint: ``{"entries": n, "bytes": total}``."""
        if self._root is None or not self._root.exists():
            return {"entries": 0, "bytes": 0}
        entries = 0
        total = 0
        for path in self._root.glob(f"*{_SUFFIX}"):
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
