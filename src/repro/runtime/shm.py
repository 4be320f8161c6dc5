"""Shared-memory template store for score-generation worker pools.

Pickling the whole :class:`~repro.sensors.protocol.Collection` into every
pool worker re-serializes ~n_subjects x fingers x devices x sets
impressions per worker — most of a worker's start-up cost and a full
copy of the template data in every worker's RSS.  This module packs the
parts score generation actually needs (minutia arrays, image metadata
and the NFIQ level of each impression) into one
``multiprocessing.shared_memory`` block that workers *map* instead of
copy:

* the parent calls :meth:`SharedTemplateStore.pack` once and passes the
  small picklable :class:`StoreHandle` (block name + index) to the pool
  initializer;
* each worker calls :meth:`SharedTemplateView.attach` and reconstructs
  templates lazily, memoizing per key — the numeric payload never
  travels through pickle;
* the parent calls :meth:`SharedTemplateStore.destroy` after the pool
  exits (the store is also a context manager).

Reconstruction is exact: minutia fields are stored as float64 and
rebuilt through the same :func:`~repro.matcher.types.template_from_arrays`
constructor the sensors use, so a view-served template is value-identical
to the original and matcher scores are unchanged.
"""

from __future__ import annotations

import multiprocessing
import os
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Tuple

import numpy as np

from .errors import ConfigurationError
from .telemetry import get_recorder

#: One minutia row in the block: x_px, y_px, angle, kind, quality.
_ROW_FIELDS = 5

#: Index entry: (row_offset, n_minutiae, width_px, height_px, dpi, nfiq).
_Entry = Tuple[int, int, int, int, int, int]

#: Addressing key, mirroring ``Collection.get`` arguments.
_Key = Tuple[int, str, str, int]


@dataclass(frozen=True)
class StoreHandle:
    """Everything a worker needs to attach: block name plus the index.

    The index maps impression keys to row offsets inside the block; it is
    tiny (a few ints per impression) and travels through the pool
    initializer by pickle, unlike the template payload itself.
    """

    name: str
    n_rows: int
    index: Dict[_Key, _Entry]
    #: Pid of the packing process — attaches in the creator itself (the
    #: sequential fallback, tests) must keep the tracker registration.
    creator_pid: int


def _destroy_block(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink one owned block; tolerates a racing unlink.

    Module-level so :mod:`weakref` finalizers can call it without
    keeping the store object alive.
    """
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass
    except OSError:  # pragma: no cover - interpreter teardown
        pass


def _unregister_from_tracker(shm: shared_memory.SharedMemory) -> None:
    """Detach ``shm`` from this process's resource tracker.

    Attaching registers the segment with the resource tracker, which
    would unlink it when the *worker* exits — destroying the block while
    the parent and sibling workers still use it (and spewing warnings).
    Ownership stays with the creating process only.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except (AttributeError, KeyError, ValueError):  # pragma: no cover
        pass


def _tracker_is_shared_with_creator() -> bool:
    """Whether this process inherited the creator's resource tracker.

    Fork children share the parent's tracker process, so their
    attach-time registration is an idempotent no-op in the parent's name
    set — unregistering there would strip the *parent's* entry (and the
    second sibling's unregister would error inside the tracker).  Only a
    process with a private tracker (spawn children, unrelated processes)
    must unregister to keep its tracker from unlinking the block at
    exit.
    """
    return (
        multiprocessing.parent_process() is not None
        and multiprocessing.get_start_method(allow_none=True) == "fork"
    )


class SharedTemplateStore:
    """Parent-side owner of a packed template block.

    Use as a context manager so the block is always released::

        with SharedTemplateStore.pack(collection) as store:
            handle = store.handle()
            ...  # run the pool, initializer attaches via the handle
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, handle
    ) -> None:
        self._shm = shm
        self._handle = handle
        # Leak guard: a store dropped without destroy() (an exception
        # between pack and the pool, a crashed server teardown path)
        # must not strand a /dev/shm block until reboot.  destroy() is
        # idempotent, so the explicit call and the finalizer compose.
        self._finalizer = weakref.finalize(self, _destroy_block, shm)

    @classmethod
    def pack(cls, collection) -> "SharedTemplateStore":
        """Serialize every impression of ``collection`` into shared memory."""
        index: Dict[_Key, _Entry] = {}
        blocks = []
        offset = 0
        for impression in collection:
            template = impression.template
            n = len(template)
            rows = np.empty((n, _ROW_FIELDS), dtype=np.float64)
            if n:
                rows[:, 0:2] = template.positions_px()
                rows[:, 2] = template.angles()
                rows[:, 3] = template.kinds()
                rows[:, 4] = template.qualities()
            blocks.append(rows)
            key = (
                impression.subject_id,
                impression.finger_label,
                impression.device_id,
                impression.set_index,
            )
            index[key] = (
                offset,
                n,
                template.width_px,
                template.height_px,
                template.resolution_dpi,
                impression.nfiq,
            )
            offset += n
        payload = (
            np.concatenate(blocks, axis=0)
            if blocks
            else np.zeros((0, _ROW_FIELDS), dtype=np.float64)
        )
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, payload.nbytes)
        )
        if payload.size:
            target = np.ndarray(
                payload.shape, dtype=np.float64, buffer=shm.buf
            )
            target[:] = payload
        recorder = get_recorder()
        if recorder.active:
            recorder.gauge("shm.templates", float(len(index)))
            recorder.gauge("shm.bytes", float(payload.nbytes))
        handle = StoreHandle(
            name=shm.name, n_rows=offset, index=index, creator_pid=os.getpid()
        )
        return cls(shm, handle)

    def handle(self) -> StoreHandle:
        """The picklable attachment token for pool initializers."""
        return self._handle

    def destroy(self) -> None:
        """Close the parent mapping and unlink the block (idempotent)."""
        if self._shm is None:
            return
        self._finalizer.detach()
        _destroy_block(self._shm)
        self._shm = None

    def __enter__(self) -> "SharedTemplateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.destroy()


class SharedTemplateView:
    """Worker-side read-only view over a packed template block.

    Duck-types the slice of the ``Collection`` interface score generation
    uses: ``get(subject, finger, device, set)`` returning an object with
    ``.template`` and ``.nfiq``.  Templates are reconstructed lazily and
    memoized, so each worker pays the rebuild cost at most once per
    impression it actually touches.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, handle: StoreHandle
    ) -> None:
        self._shm = shm
        self._rows = np.ndarray(
            (handle.n_rows, _ROW_FIELDS), dtype=np.float64, buffer=shm.buf
        )
        self._index = handle.index
        self._templates: Dict[_Key, "StoredImpression"] = {}

    @classmethod
    def attach(cls, handle: StoreHandle) -> "SharedTemplateView":
        """Map the block named by ``handle`` (read side)."""
        shm = shared_memory.SharedMemory(name=handle.name)
        if (
            os.getpid() != handle.creator_pid
            and not _tracker_is_shared_with_creator()
        ):
            _unregister_from_tracker(shm)
        return cls(shm, handle)

    def get(
        self, subject_id: int, finger: str, device_id: str, set_index: int
    ) -> "StoredImpression":
        """Fetch one impression view; raises with the key when absent."""
        key = (subject_id, finger, device_id, set_index)
        cached = self._templates.get(key)
        if cached is not None:
            return cached
        entry = self._index.get(key)
        if entry is None:
            raise ConfigurationError(f"no shared impression for key {key}")
        # Local import: runtime is the bottom layer and matcher imports
        # from it, so the template constructor resolves at call time.
        from ..matcher.types import template_from_arrays

        offset, n, width_px, height_px, dpi, nfiq = entry
        rows = self._rows[offset : offset + n]
        template = template_from_arrays(
            positions_px=rows[:, 0:2],
            angles=rows[:, 2],
            kinds=rows[:, 3].astype(np.int64),
            qualities=rows[:, 4].astype(np.int64),
            width_px=width_px,
            height_px=height_px,
            resolution_dpi=dpi,
        )
        impression = StoredImpression(template=template, nfiq=nfiq)
        self._templates[key] = impression
        return impression

    def __len__(self) -> int:
        return len(self._index)

    def close(self) -> None:
        """Drop this process's mapping (the block itself lives on)."""
        if self._shm is not None:
            self._rows = None
            self._shm.close()
            self._shm = None


@dataclass(frozen=True)
class StoredImpression:
    """The slice of an :class:`~repro.sensors.base.Impression` scoring needs."""

    template: Any  # :class:`~repro.matcher.types.Template`
    nfiq: int


#: Gallery index entry: (row_offset, n_minutiae, width_px, height_px,
#: dpi, descriptor_row).
_GalleryEntry = Tuple[int, int, int, int, int, int]

#: Gallery addressing key: (device, identity).
_GalleryKey = Tuple[str, str]


@dataclass(frozen=True)
class GalleryStoreHandle:
    """Attachment token of a packed serving gallery.

    Same idea as :class:`StoreHandle`, but keyed by (device, identity)
    and carrying the descriptor-matrix geometry: the block holds the
    minutia rows of every record followed by one contiguous
    ``(n_records, descriptor_dim)`` float64 matrix, so a sharded worker
    can rebuild both its templates *and* its
    :class:`~repro.core.prefilter.PrefilterIndex` slice without any
    payload travelling through pickle.
    """

    name: str
    n_rows: int
    n_records: int
    descriptor_dim: int
    index: Dict[_GalleryKey, _GalleryEntry]
    creator_pid: int


class SharedGalleryStore(SharedTemplateStore):
    """Parent-side owner of a packed serving-gallery block.

    The serving sibling of :meth:`SharedTemplateStore.pack`: instead of
    a synthesized collection it packs the live
    :class:`~repro.service.gallery.GalleryIndex` records — minutia rows
    plus each record's prefilter descriptor — into one block the worker
    pool maps.  Lifecycle (context manager, idempotent :meth:`destroy`,
    GC leak guard) is inherited.
    """

    @classmethod
    def pack_gallery(cls, gallery) -> "SharedGalleryStore":
        """Pack every record of ``gallery`` into shared memory.

        ``gallery`` needs ``records()`` (``{(device, identity): record}``
        with ``.template``) and ``descriptor(identity, device)`` — the
        :class:`~repro.service.gallery.GalleryIndex` surface.  Keys are
        packed in sorted order so the block layout is deterministic for
        a given gallery state; rows and descriptors are written straight
        into the block, with no intermediate copy of either.
        """
        records = gallery.records()
        keys = sorted(records)
        dim = gallery.descriptor(keys[0][1], keys[0][0]).size if keys else 0
        n_rows = sum(len(records[key].template) for key in keys)
        rows_bytes = n_rows * _ROW_FIELDS * 8
        matrix_bytes = len(keys) * dim * 8
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, rows_bytes + matrix_bytes)
        )
        rows = np.ndarray((n_rows, _ROW_FIELDS), dtype=np.float64, buffer=shm.buf)
        matrix = np.ndarray(
            (len(keys), dim), dtype=np.float64, buffer=shm.buf, offset=rows_bytes
        )
        index: Dict[_GalleryKey, _GalleryEntry] = {}
        offset = 0
        for position, key in enumerate(keys):
            template = records[key].template
            n = len(template)
            rows[offset : offset + n, 0:2] = template.positions_px()
            rows[offset : offset + n, 2] = template.angles()
            rows[offset : offset + n, 3] = template.kinds()
            rows[offset : offset + n, 4] = template.qualities()
            matrix[position] = gallery.descriptor(key[1], key[0])
            index[key] = (
                offset,
                n,
                template.width_px,
                template.height_px,
                template.resolution_dpi,
                position,
            )
            offset += n
        recorder = get_recorder()
        if recorder.active:
            recorder.gauge("shm.gallery.records", float(len(index)))
            recorder.gauge("shm.gallery.bytes", float(rows_bytes + matrix_bytes))
        handle = GalleryStoreHandle(
            name=shm.name,
            n_rows=offset,
            n_records=len(index),
            descriptor_dim=dim,
            index=index,
            creator_pid=os.getpid(),
        )
        return cls(shm, handle)

    def handle(self) -> GalleryStoreHandle:
        """The picklable attachment token for worker processes."""
        return self._handle


class SharedGalleryView:
    """Worker-side read-only view over a packed gallery block.

    Serves the base snapshot of one worker's shard: templates are
    reconstructed lazily (memoized per key, exactly as
    :class:`SharedTemplateView` does) and descriptor rows are zero-copy
    slices of the shared matrix, ready to seed a per-device
    :class:`~repro.core.prefilter.PrefilterIndex`.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, handle: GalleryStoreHandle
    ) -> None:
        self._shm = shm
        self._rows = np.ndarray(
            (handle.n_rows, _ROW_FIELDS), dtype=np.float64, buffer=shm.buf
        )
        self._matrix = np.ndarray(
            (handle.n_records, max(1, handle.descriptor_dim)),
            dtype=np.float64,
            buffer=shm.buf,
            offset=handle.n_rows * _ROW_FIELDS * 8,
        )
        self._index = handle.index
        self._templates: Dict[_GalleryKey, Any] = {}

    @classmethod
    def attach(cls, handle: GalleryStoreHandle) -> "SharedGalleryView":
        """Map the block named by ``handle`` (read side)."""
        shm = shared_memory.SharedMemory(name=handle.name)
        if (
            os.getpid() != handle.creator_pid
            and not _tracker_is_shared_with_creator()
        ):
            _unregister_from_tracker(shm)
        return cls(shm, handle)

    def keys(self):
        """Every packed (device, identity) key."""
        return self._index.keys()

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: _GalleryKey) -> bool:
        return key in self._index

    def template(self, device: str, identity: str):
        """Rebuild one record's template (memoized); raises when absent."""
        key = (device, identity)
        cached = self._templates.get(key)
        if cached is not None:
            return cached
        entry = self._index.get(key)
        if entry is None:
            raise ConfigurationError(f"no shared gallery record for {key}")
        from ..matcher.types import template_from_arrays

        offset, n, width_px, height_px, dpi, _position = entry
        rows = self._rows[offset : offset + n]
        template = template_from_arrays(
            positions_px=rows[:, 0:2],
            angles=rows[:, 2],
            kinds=rows[:, 3].astype(np.int64),
            qualities=rows[:, 4].astype(np.int64),
            width_px=width_px,
            height_px=height_px,
            resolution_dpi=dpi,
        )
        self._templates[key] = template
        return template

    def descriptor(self, device: str, identity: str) -> np.ndarray:
        """One record's descriptor row (a copy, safe to keep)."""
        entry = self._index.get((device, identity))
        if entry is None:
            raise ConfigurationError(
                f"no shared gallery record for {(device, identity)}"
            )
        return np.array(self._matrix[entry[5]], dtype=np.float64)

    def close(self) -> None:
        """Drop this process's mapping (the block itself lives on)."""
        if self._shm is not None:
            self._rows = None
            self._matrix = None
            self._shm.close()
            self._shm = None


__all__ = [
    "SharedTemplateStore",
    "SharedTemplateView",
    "SharedGalleryStore",
    "SharedGalleryView",
    "StoreHandle",
    "GalleryStoreHandle",
    "StoredImpression",
]
