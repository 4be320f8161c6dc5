"""Persistent, device-aware gallery of enrolled templates.

The online counterpart of the batch study's
:class:`~repro.pipeline.database.FingerprintCollection`: instead of a
synthesized population fixed at construction, :class:`GalleryIndex`
accepts enrollments one at a time, gates them on template-evidence NFIQ
quality, and persists every accepted record so the gallery survives a
server restart.

Storage rides :class:`~repro.runtime.cache.NpzDirectory` — one shard
directory per capture device, one CRC-checked bundle per identity — so
the gallery inherits the cache layer's atomic writes and
corruption-as-miss semantics: a record torn by a crash mid-write is
dropped (and logged) at reload rather than poisoning the index.  The
per-device sharding mirrors the paper's central finding: which device
enrolled a finger is *the* covariate interoperability cares about, so
the serving layer keeps it a first-class axis (verify and identify
requests address a device shard, and cross-device searches are an
explicit choice).

Each record's bundle also carries its fixed-length **prefilter
descriptor** (:func:`repro.core.prefilter.descriptor_vector`), and every
device shard keeps a contiguous descriptor matrix in memory — a
:class:`~repro.core.prefilter.PrefilterIndex` filled row by row from the
bundles at start-up and updated incrementally on enroll/delete.  That
matrix is the only in-memory copy of the descriptors
(:meth:`GalleryIndex.descriptor` reads a row); it is never persisted as
a whole, so it cannot disagree with the records it indexes.

Durability rides a :class:`~repro.runtime.wal.WriteAheadLog` under
``root/__wal__``: every enroll/delete is logged (and, per
``REPRO_WAL_SYNC``, fsynced) *before* it is applied, and the server
only acks after both — log → apply → ack.  At startup the retained log
is replayed against the shards, idempotently reconciling whatever a
crash interrupted; once replay lands, the log is checkpointed and
compacted.  The same log is what a read-only follower
(``GalleryIndex(root, readonly=True)`` + ``apply_wal_record``) tails to
mirror the primary live.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.prefilter import (
    DESCRIPTOR_DIM,
    DESCRIPTOR_VERSION,
    PrefilterCandidate,
    PrefilterIndex,
    descriptor_vector,
    merge_shard_candidates,
)
from ..matcher.types import Template, template_from_arrays
from ..quality.nfiq import assess_template
from ..runtime.cache import NpzDirectory
from ..runtime.errors import ConfigurationError, PermanentError, ReproError
from ..runtime.telemetry import get_logger, get_recorder
from ..runtime.wal import (
    WalRecord,
    WriteAheadLog,
    decode_array,
    encode_array,
)

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")

#: Reserved name — no device or identity may use it.  Older versions
#: persisted descriptor matrices there; reload skips the directory.
_INDEX_DIRNAME = "__index__"

#: Directory holding the write-ahead log's segments (reserved too: a
#: device of that name would write its records among the segments).
_WAL_DIRNAME = "__wal__"

_RESERVED_NAMES = {
    _INDEX_DIRNAME: "the descriptor index",
    _WAL_DIRNAME: "the write-ahead log",
}

#: Default NFIQ acceptance ceiling: levels 1–4 enroll, level 5 (the
#: "hopeless sample" bucket) is rejected.  NIST SP 800-76 gates at
#: NFIQ > 3; pass ``max_nfiq_level=3`` for that stricter policy.
DEFAULT_MAX_NFIQ_LEVEL = 4

_log = get_logger("service.gallery")


class GalleryError(ReproError):
    """The gallery index could not complete an operation."""


class EnrollmentRejected(PermanentError):
    """An enrollment failed the NFIQ quality gate.

    Permanent by design: re-submitting the same template will produce
    the same level, so the caller must re-capture, not retry.
    """

    def __init__(self, identity: str, level: int, max_level: int) -> None:
        super().__init__(
            f"enrollment of {identity!r} rejected: NFIQ level {level} "
            f"exceeds the acceptance ceiling {max_level}"
        )
        self.identity = identity
        self.level = level
        self.max_level = max_level


class UnknownIdentityError(PermanentError):
    """A lookup referenced an identity/device pair that is not enrolled."""

    def __init__(self, identity: str, device: str) -> None:
        super().__init__(f"identity {identity!r} is not enrolled on device {device!r}")
        self.identity = identity
        self.device = device


class GalleryReadOnlyError(PermanentError):
    """A write reached a read-only (follower) gallery."""

    def __init__(self, operation: str) -> None:
        super().__init__(
            f"gallery is read-only (follower replica); {operation} must "
            "go to the primary"
        )
        self.operation = operation


@dataclass(frozen=True)
class GalleryRecord:
    """One enrolled template plus its enrollment-time metadata.

    The record's prefilter descriptor is persisted in its bundle but
    held in memory only as a row of its device's prefilter index; read
    it with :meth:`GalleryIndex.descriptor`.
    """

    identity: str
    device: str
    template: Template
    nfiq_level: int
    nfiq_utility: float
    enrolled_at: float
    #: WAL sequence number that durably logged this enrollment (0 for
    #: records predating the log or loaded straight from the shards).
    lsn: int = field(compare=False, default=0)


def _check_name(value: str, what: str) -> str:
    if not isinstance(value, str) or not _NAME_RE.match(value):
        raise ConfigurationError(
            f"{what} must match [A-Za-z0-9._-]+, got {value!r}"
        )
    if value in _RESERVED_NAMES:
        raise ConfigurationError(
            f"{what} {value!r} is reserved for {_RESERVED_NAMES[value]}"
        )
    return value


def wal_enroll_payload(
    identity: str,
    device: str,
    template: Template,
    nfiq_level: int,
    nfiq_utility: float,
    enrolled_at: float,
) -> dict:
    """The JSON body of an ``enroll`` WAL record.

    Carries the template's raw arrays byte-exactly (base64), so replay
    — on the primary after a crash or live on a follower — rebuilds a
    record bit-identical to the one the primary served.
    """
    return {
        "identity": identity,
        "device": device,
        "nfiq_level": int(nfiq_level),
        "nfiq_utility": float(nfiq_utility),
        "enrolled_at": float(enrolled_at),
        "template": {
            "width_px": template.width_px,
            "height_px": template.height_px,
            "resolution_dpi": template.resolution_dpi,
            "positions": encode_array(template.positions_px()),
            "angles": encode_array(template.angles()),
            "kinds": encode_array(template.kinds()),
            "qualities": encode_array(template.qualities()),
        },
    }


def record_from_wal(data: dict, lsn: int = 0) -> GalleryRecord:
    """Rebuild a :class:`GalleryRecord` from an ``enroll`` WAL payload.

    The payload carries no descriptor; callers that index the record
    compute it with :func:`~repro.core.prefilter.descriptor_vector`.
    """
    try:
        spec = data["template"]
        template = template_from_arrays(
            positions_px=decode_array(spec["positions"]),
            angles=decode_array(spec["angles"]),
            kinds=decode_array(spec["kinds"]),
            qualities=decode_array(spec["qualities"]),
            width_px=int(spec["width_px"]),
            height_px=int(spec["height_px"]),
            resolution_dpi=int(spec.get("resolution_dpi", 500)),
        )
        return GalleryRecord(
            identity=_check_name(str(data["identity"]), "identity"),
            device=_check_name(str(data["device"]), "device"),
            template=template,
            nfiq_level=int(data["nfiq_level"]),
            nfiq_utility=float(data["nfiq_utility"]),
            enrolled_at=float(data["enrolled_at"]),
            lsn=int(lsn),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise GalleryError(
            f"WAL enroll record is missing or malformed: {exc}"
        ) from exc


class GalleryIndex:
    """Enrollment database: per-device shards of quality-gated templates.

    Parameters
    ----------
    root:
        Directory holding the per-device shards
        (``root/<device>/<identity>.npz``).  Created on first enrollment;
        existing records are loaded eagerly at construction, which is how
        a restarted server recovers its gallery.
    max_nfiq_level:
        Acceptance ceiling for the template-evidence NFIQ gate; a
        template assessed *worse* (numerically greater) is rejected with
        :class:`EnrollmentRejected`.
    wal_dir:
        Where the write-ahead log lives (default ``root/__wal__``).
    wal_sync:
        Fsync policy override (default: ``REPRO_WAL_SYNC`` or
        ``always``); see :mod:`repro.runtime.wal`.
    readonly:
        Follower mode: load the shards without mutating anything on
        disk (corrupt entries are skipped, not unlinked; no WAL writer).
        Writes raise :class:`GalleryReadOnlyError`; live updates arrive
        through :meth:`apply_wal_record` from a tailed WAL instead.
    """

    def __init__(
        self,
        root: Path,
        max_nfiq_level: int = DEFAULT_MAX_NFIQ_LEVEL,
        wal_dir: Optional[Path] = None,
        wal_sync: Optional[str] = None,
        readonly: bool = False,
    ) -> None:
        if not 1 <= max_nfiq_level <= 5:
            raise ConfigurationError(
                f"max_nfiq_level must be 1..5, got {max_nfiq_level}"
            )
        self._root = Path(root)
        self._max_nfiq_level = max_nfiq_level
        self._readonly = bool(readonly)
        self._shards: Dict[str, NpzDirectory] = {}
        self._records: Dict[Tuple[str, str], GalleryRecord] = {}
        self._indexes: Dict[str, PrefilterIndex] = {}
        #: Corrupt/unreadable records silently skipped at the last
        #: reload — surfaced in :meth:`stats` and ``/metrics``.
        self.corrupt_dropped = 0
        self._wal: Optional[WriteAheadLog] = None
        if not self._readonly:
            self._wal = WriteAheadLog(
                wal_dir if wal_dir is not None else self._root / _WAL_DIRNAME,
                sync=wal_sync,
            )
        self._reload()
        if self._wal is not None:
            self._replay_wal()

    # ------------------------------------------------------------------
    # Persistence plumbing
    # ------------------------------------------------------------------
    def _shard(self, device: str) -> NpzDirectory:
        shard = self._shards.get(device)
        if shard is None:
            shard = NpzDirectory(
                self._root / device,
                metric_prefix="gallery",
                readonly=self._readonly,
            )
            self._shards[device] = shard
        return shard

    def _reload(self) -> None:
        """Rebuild the records and prefilter indexes from the shards.

        Each device's index is sized to its bundle count up front and
        filled with each bundle's descriptor as it is read, so no
        descriptor is held twice.
        """
        if not self._root.exists():
            return
        loaded = 0
        dropped = 0
        for device_dir in sorted(p for p in self._root.iterdir() if p.is_dir()):
            device = device_dir.name
            if device in _RESERVED_NAMES or not _NAME_RE.match(device):
                continue
            shard = self._shard(device)
            identities = [i for i in shard.keys() if _NAME_RE.match(i)]
            if not identities:
                continue
            index = PrefilterIndex(capacity=len(identities))
            for identity in identities:
                loaded_record = self._load_record(shard, device, identity)
                if loaded_record is None:
                    dropped += 1
                    continue
                record, descriptor = loaded_record
                self._records[(device, identity)] = record
                index.add(identity, descriptor)
                loaded += 1
            if len(index):
                self._indexes[device] = index
        self.corrupt_dropped = dropped
        if dropped:
            get_recorder().count("gallery.corrupt_dropped", dropped)
        if loaded or dropped:
            _log.info(
                "gallery reloaded",
                extra={"data": {"records": loaded, "dropped": dropped}},
            )

    def _replay_wal(self) -> None:
        """Reconcile the shards with the retained write-ahead log.

        Replay is idempotent: an enroll already reflected in the shards
        (same enrollment timestamp) is skipped, a delete of an absent
        pair is a no-op — so re-running replay after any crash point
        converges on the logged history.  A torn tail was truncated by
        :meth:`~repro.runtime.wal.WriteAheadLog.replay` (the
        interrupted op was never acked); corruption anywhere else
        propagates :class:`~repro.runtime.wal.WalCorruptionError`.
        """
        assert self._wal is not None
        records = self._wal.replay()
        applied = 0
        # Every retained record replays, checkpointed or not: retained
        # records are a suffix of the log, so idempotent re-application
        # over the shard state converges — and re-materializes any shard
        # file that vanished or rotted since the checkpoint.
        for rec in records:
            if rec.op == "enroll":
                if self._already_applied(rec.data):
                    continue
                record = record_from_wal(rec.data, lsn=rec.lsn)
                descriptor = descriptor_vector(record.template)
                self._store_record(record, descriptor)
                self._records[(record.device, record.identity)] = record
                self._index(record.device).add(record.identity, descriptor)
                applied += 1
            elif rec.op == "delete":
                try:
                    key = (str(rec.data["device"]), str(rec.data["identity"]))
                except KeyError as exc:
                    raise GalleryError(
                        f"WAL delete record missing field: {exc}"
                    ) from exc
                if key in self._records:
                    self._forget(*key)
                    self._shard(key[0]).invalidate(key[1])
                    applied += 1
            else:
                _log.warning(
                    "unknown WAL op skipped",
                    extra={"data": {"op": rec.op, "lsn": rec.lsn}},
                )
        if applied:
            get_recorder().count("gallery.wal_reapplied", applied)
            _log.info(
                "WAL replay reconciled the gallery",
                extra={"data": {
                    "records": len(records), "applied": applied,
                }},
            )
        # Everything logged is now applied to the (durable, atomic)
        # shards: advance the checkpoint and compact old segments.
        if self._wal.last_lsn:
            self._wal.checkpoint(self._wal.last_lsn)

    def _already_applied(self, data: dict) -> bool:
        """Whether an ``enroll`` payload is already the stored record.

        Checked on the payload's key and timestamp alone, so replaying
        an applied log builds no template or descriptor; a malformed
        payload reads as not applied and fails in :func:`record_from_wal`.
        """
        try:
            existing = self._records.get(
                (str(data["device"]), str(data["identity"]))
            )
            return (
                existing is not None
                and existing.enrolled_at == float(data["enrolled_at"])
            )
        except (KeyError, TypeError, ValueError):
            return False

    def _load_record(
        self, shard: NpzDirectory, device: str, identity: str
    ) -> Optional[Tuple[GalleryRecord, np.ndarray]]:
        """One bundle's record and descriptor; ``None`` if unreadable."""
        arrays, meta = shard.load_entry(identity) or (None, None)
        if meta is None:
            return None
        try:
            template = template_from_arrays(
                positions_px=arrays["positions"],
                angles=arrays["angles"],
                kinds=arrays["kinds"],
                qualities=arrays["qualities"],
                width_px=int(meta["width_px"]),
                height_px=int(meta["height_px"]),
                resolution_dpi=int(meta.get("resolution_dpi", 500)),
            )
        except (KeyError, ReproError):
            _log.warning(
                "unreadable gallery record dropped",
                extra={"data": {"device": device, "identity": identity}},
            )
            return None
        descriptor = arrays.get("descriptor")
        if (
            descriptor is None
            or descriptor.shape != (DESCRIPTOR_DIM,)
            or int(meta.get("descriptor_version", 0)) != DESCRIPTOR_VERSION
            or not np.isfinite(descriptor).all()
        ):
            # Records written before the prefilter (or under another
            # descriptor layout, or with a vector the index would refuse)
            # are upgraded in memory; the next store of that identity
            # persists the fresh vector.
            descriptor = descriptor_vector(template)
            get_recorder().count("gallery.descriptor_recomputed")
        record = GalleryRecord(
            identity=identity,
            device=device,
            template=template,
            nfiq_level=int(meta.get("nfiq_level", 0)) or assess_template(template).level,
            nfiq_utility=float(meta.get("nfiq_utility", 0.0)),
            enrolled_at=float(meta.get("enrolled_at", 0.0)),
        )
        return record, descriptor

    # ------------------------------------------------------------------
    # Descriptor index maintenance
    # ------------------------------------------------------------------
    def _index(self, device: str) -> PrefilterIndex:
        index = self._indexes.get(device)
        if index is None:
            index = PrefilterIndex()
            self._indexes[device] = index
        return index

    def _forget(self, device: str, identity: str) -> None:
        """Drop one record and its index row from memory."""
        del self._records[(device, identity)]
        index = self._indexes.get(device)
        if index is not None and identity in index:
            index.remove(identity)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def _store_record(self, record: GalleryRecord, descriptor: np.ndarray) -> None:
        """Write one record's shard entry (atomic)."""
        template = record.template
        self._shard(record.device).store(
            record.identity,
            arrays={
                "positions": template.positions_px(),
                "angles": template.angles(),
                "kinds": template.kinds(),
                "qualities": template.qualities(),
                "descriptor": descriptor,
            },
            meta={
                "identity": record.identity,
                "device": record.device,
                "nfiq_level": record.nfiq_level,
                "nfiq_utility": record.nfiq_utility,
                "width_px": template.width_px,
                "height_px": template.height_px,
                "resolution_dpi": template.resolution_dpi,
                "enrolled_at": record.enrolled_at,
                "descriptor_version": DESCRIPTOR_VERSION,
            },
        )

    def _maybe_checkpoint(self, durable_lsn: int) -> None:
        """Checkpoint/compact when a WAL segment sealed since the last.

        Every op at or below ``durable_lsn`` is already applied to the
        atomic shard store, so the sealed segments are redundant.
        """
        if self._wal is None or not self._wal.rotated_since_checkpoint:
            return
        self._wal.checkpoint(durable_lsn)

    def enroll(
        self, identity: str, template: Template, device: str = "default"
    ) -> GalleryRecord:
        """Quality-gate, log, persist, and index one template.

        Re-enrolling an existing (identity, device) pair replaces the
        stored template — the online analogue of a re-capture.  Raises
        :class:`EnrollmentRejected` when the template's NFIQ level is
        worse than the index's acceptance ceiling.

        Ordering is log → apply → return: the WAL append (fsynced per
        policy) happens before any state changes, so a caller that saw
        this method return can rely on the enrollment surviving a
        crash, and a crash mid-apply is reconciled by replay.  A WAL
        failure raises before anything is applied — never acked, never
        half-done.
        """
        if self._readonly:
            raise GalleryReadOnlyError("enroll")
        _check_name(identity, "identity")
        _check_name(device, "device")
        assessment = assess_template(template)
        if assessment.level > self._max_nfiq_level:
            get_recorder().count("gallery.rejected")
            raise EnrollmentRejected(identity, assessment.level, self._max_nfiq_level)
        descriptor = descriptor_vector(template)
        enrolled_at = time.time()
        lsn = 0
        if self._wal is not None:
            lsn = self._wal.append(
                "enroll",
                wal_enroll_payload(
                    identity, device, template,
                    assessment.level, assessment.utility, enrolled_at,
                ),
            )
        record = GalleryRecord(
            identity=identity,
            device=device,
            template=template,
            nfiq_level=assessment.level,
            nfiq_utility=assessment.utility,
            enrolled_at=enrolled_at,
            lsn=lsn,
        )
        self._store_record(record, descriptor)
        self._records[(device, identity)] = record
        self._index(device).add(identity, descriptor)
        self._maybe_checkpoint(lsn)
        get_recorder().count("gallery.enrolled")
        return record

    def delete(self, identity: str, device: str = "default") -> int:
        """Remove one enrollment; unknown pairs raise.

        Same log → apply contract as :meth:`enroll`; returns the WAL
        sequence number of the logged delete (0 without a log).
        """
        if self._readonly:
            raise GalleryReadOnlyError("delete")
        _check_name(identity, "identity")
        _check_name(device, "device")
        if (device, identity) not in self._records:
            raise UnknownIdentityError(identity, device)
        lsn = 0
        if self._wal is not None:
            lsn = self._wal.append(
                "delete", {"identity": identity, "device": device}
            )
        self._forget(device, identity)
        self._shard(device).invalidate(identity)
        self._maybe_checkpoint(lsn)
        get_recorder().count("gallery.deleted")
        return lsn

    # ------------------------------------------------------------------
    # Follower application / lifecycle
    # ------------------------------------------------------------------
    def apply_wal_record(
        self, record: WalRecord
    ) -> Optional[Tuple[str, str, str, Optional[GalleryRecord]]]:
        """Apply one tailed WAL record in memory (follower mode).

        Returns ``(op, device, identity, record)`` for an applied
        enroll (``record`` is the rebuilt :class:`GalleryRecord`) or
        delete (``record`` is ``None``), and ``None`` for a no-op —
        the caller forwards applied ops to its worker-pool delta log.
        Never touches disk: the primary owns the shards.
        """
        if record.op == "enroll":
            rebuilt = record_from_wal(record.data, lsn=record.lsn)
            key = (rebuilt.device, rebuilt.identity)
            existing = self._records.get(key)
            self._records[key] = rebuilt
            self._index(rebuilt.device).add(
                rebuilt.identity, descriptor_vector(rebuilt.template)
            )
            if existing is not None and existing.enrolled_at == rebuilt.enrolled_at:
                return None
            return ("enroll", rebuilt.device, rebuilt.identity, rebuilt)
        if record.op == "delete":
            device = str(record.data.get("device", ""))
            identity = str(record.data.get("identity", ""))
            key = (device, identity)
            if key not in self._records:
                return None
            self._forget(device, identity)
            return ("delete", device, identity, None)
        _log.warning(
            "unknown WAL op skipped",
            extra={"data": {"op": record.op, "lsn": record.lsn}},
        )
        return None

    def rebootstrap(self) -> int:
        """Reload this read-only view from the on-disk snapshot.

        A follower that falls past WAL retention (the primary compacted
        beyond its cursor) cannot catch up incrementally — but the
        shards it shares with the primary always reflect at least
        everything the compacted records did, so dropping the in-memory
        state and re-reading the snapshot re-synchronizes it.  The
        caller then restarts its WAL tail from the oldest retained
        segment; re-applying retained records over the fresh snapshot
        is safe because :meth:`apply_wal_record` is idempotent.

        Returns the record count after the reload.  Only meaningful on
        a ``readonly=True`` gallery — a writer owns its state.
        """
        if not self._readonly:
            raise GalleryReadOnlyError("rebootstrap")
        self._records.clear()
        self._shards.clear()
        self._indexes.clear()
        self._reload()
        get_recorder().count("gallery.rebootstraps")
        return len(self._records)

    @property
    def readonly(self) -> bool:
        """Whether this gallery is a read-only follower view."""
        return self._readonly

    @property
    def wal_last_lsn(self) -> int:
        """LSN of the most recent logged op (0 without a writer)."""
        return self._wal.last_lsn if self._wal is not None else 0

    def wal_stats(self) -> Optional[dict]:
        """The write-ahead log's footprint/counters (``None`` without one)."""
        return self._wal.stats() if self._wal is not None else None

    def close(self) -> None:
        """Checkpoint and close the WAL (idempotent)."""
        if self._wal is not None:
            if self._wal.last_lsn:
                self._wal.checkpoint(self._wal.last_lsn)
            self._wal.close()

    def __enter__(self) -> "GalleryIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def get(self, identity: str, device: str = "default") -> GalleryRecord:
        """The enrolled record, or :class:`UnknownIdentityError`."""
        record = self._records.get((device, identity))
        if record is None:
            raise UnknownIdentityError(identity, device)
        return record

    def __contains__(self, key: Tuple[str, str]) -> bool:
        device, identity = key
        return (device, identity) in self._records

    def __len__(self) -> int:
        return len(self._records)

    def devices(self) -> List[str]:
        """Devices with at least one enrollment, sorted."""
        return sorted({device for device, _ in self._records})

    def identities(self, device: Optional[str] = None) -> List[str]:
        """Enrolled identities (on one device, or anywhere), sorted."""
        if device is None:
            return sorted({identity for _, identity in self._records})
        return sorted(
            identity for dev, identity in self._records if dev == device
        )

    def candidates(self, device: Optional[str] = None) -> Dict[str, Template]:
        """The 1:N search space as ``{identity: template}``.

        With a device, keys are bare identities within that shard; across
        all devices the same identity may be enrolled several times, so
        keys become ``device/identity`` to keep candidates distinct.
        """
        if device is not None:
            return {
                identity: record.template
                for (dev, identity), record in sorted(self._records.items())
                if dev == device
            }
        return {
            f"{dev}/{identity}": record.template
            for (dev, identity), record in sorted(self._records.items())
        }

    def size(self, device: Optional[str] = None) -> int:
        """Records in :meth:`candidates`' scope, without building it.

        Every record sits in its device's prefilter index, so the index
        lengths are the shard sizes.
        """
        if device is not None:
            index = self._indexes.get(device)
            return len(index) if index is not None else 0
        return sum(len(index) for index in self._indexes.values())

    def lookup(
        self, keys: List[str], device: Optional[str] = None
    ) -> List[Template]:
        """The templates of ``keys`` named as :meth:`candidates` names them.

        The two-stage search scores only its K survivors, so it fetches
        those by key instead of materialising the whole search space.
        """
        if device is not None:
            return [self._records[(device, key)].template for key in keys]
        return [
            self._records[tuple(key.split("/", 1))].template for key in keys
        ]

    def prefilter(
        self,
        probe: Template,
        device: Optional[str] = None,
        k: int = 32,
    ) -> List[PrefilterCandidate]:
        """Coarse-stage top-K: the descriptor-nearest enrolled candidates.

        Keys match :meth:`candidates` — bare identities within one
        device shard, ``device/identity`` across shards (each shard's
        local top-K is merged into an exact global top-K, so sharding
        never changes the answer).  Returns at most ``k`` candidates,
        nearest first; an empty gallery returns an empty list.
        """
        if k < 1:
            raise ConfigurationError(f"prefilter needs k >= 1, got {k}")
        vector = descriptor_vector(probe)
        if device is not None:
            _check_name(device, "device")
            if device not in self._indexes:
                return []
            return self._indexes[device].top_k(vector, k)
        shards = []
        for dev, index in self._indexes.items():
            local = index.top_k(vector, k)
            shards.append([
                PrefilterCandidate(
                    key=f"{dev}/{c.key}", distance=c.distance, rank=c.rank
                )
                for c in local
            ])
        return merge_shard_candidates(shards, k)

    def records(self) -> Dict[Tuple[str, str], GalleryRecord]:
        """A shallow copy of every record, keyed ``(device, identity)``.

        The worker pool packs this into a
        :class:`~repro.runtime.shm.SharedGalleryStore` snapshot at
        startup; the copy keeps later enrollments from mutating the dict
        mid-pack.
        """
        return dict(self._records)

    def descriptor(self, identity: str, device: str = "default") -> np.ndarray:
        """One enrolled record's prefilter descriptor (a copy of its row)."""
        index = self._indexes.get(device)
        if index is None or identity not in index:
            raise UnknownIdentityError(identity, device)
        return index.vector(identity)

    def descriptor_matrix(self, device: str) -> np.ndarray:
        """One shard's contiguous (n, dim) descriptor matrix (a copy)."""
        _check_name(device, "device")
        if device not in self._indexes:
            return np.empty((0, DESCRIPTOR_DIM), dtype=np.float64)
        return self._indexes[device].matrix()

    def stats(self) -> dict:
        """JSON-able footprint summary for ``/stats`` and the CLI."""
        per_device: Dict[str, int] = {}
        for device, _ in self._records:
            per_device[device] = per_device.get(device, 0) + 1
        disk = {"entries": 0, "bytes": 0}
        for device in self.devices():
            shard_stats = self._shard(device).stats()
            disk["entries"] += shard_stats["entries"]
            disk["bytes"] += shard_stats["bytes"]
        return {
            "root": str(self._root),
            "enrolled": len(self._records),
            "devices": per_device,
            "max_nfiq_level": self._max_nfiq_level,
            "readonly": self._readonly,
            "corrupt_dropped": self.corrupt_dropped,
            "disk": disk,
            "index": {
                "descriptor_version": DESCRIPTOR_VERSION,
                "descriptor_dim": DESCRIPTOR_DIM,
                "indexed": {
                    device: len(index)
                    for device, index in sorted(self._indexes.items())
                },
            },
            "wal": self.wal_stats(),
        }


__all__ = [
    "GalleryIndex",
    "GalleryRecord",
    "GalleryError",
    "GalleryReadOnlyError",
    "EnrollmentRejected",
    "UnknownIdentityError",
    "DEFAULT_MAX_NFIQ_LEVEL",
    "record_from_wal",
    "wal_enroll_payload",
]
