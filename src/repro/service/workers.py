"""Horizontally sharded serving: a pool of matcher worker processes.

The serving layer's single one-thread matcher executor is the paper's
throughput ceiling in miniature: scoring is embarrassingly parallel
across gallery candidates, yet every ``/identify`` funnels through one
core.  :class:`WorkerPool` removes that ceiling with N supervised
matcher processes, each owning a deterministic slice of the gallery:

* **Stable sharding.**  A record lives on worker
  ``shard_of(identity, n)`` — the BLAKE2b digest of the *identity*
  modulo the pool width — so every device's copy of an identity shares
  a worker, and a restarted pool reassembles the identical layout.
* **Shared-memory base snapshot.**  At startup the parent packs the
  whole gallery (minutia rows + prefilter descriptors) into one
  :class:`~repro.runtime.shm.SharedGalleryStore` block; each worker
  maps it read-only and materializes only its own shard — no pickled
  template payloads at spawn, ever.  Post-startup enrollments and
  deletions travel as a small **delta log**: applied live over the RPC
  pipe, and replayed (shard-filtered) into any respawned worker.
* **Scatter/gather search.**  ``/identify`` fans out to every worker —
  each ranks (exact) or prefilters (two-stage) its shard locally — and
  the parent reduces with the same ``(-score, key)`` /
  ``(distance, key)`` comparators the in-process path uses, so sharded
  results are bit-identical to single-process results, tie-breaks
  included.  Batched ``/verify`` routes each pair job to the owning
  worker's private :class:`~repro.service.batching.MicroBatcher` queue.
* **Supervision.**  A worker that crashes or stalls past the RPC
  timeout is terminated and respawned (base snapshot + replayed
  deltas), and the interrupted message is simply re-sent — requeue by
  construction.  A :class:`~repro.runtime.supervisor.RestartBudget`
  bounds the tolerance: exhaustion degrades the pool, and the server
  falls back to the in-process path (the bit-identical control arm
  that ``REPRO_SERVE_WORKERS=0/1`` selects permanently).
* **Chaos hooks.**  Worker-side ops run through
  :func:`repro.runtime.faults.perturb` under keys
  ``serve-w{id}-{op}-{seq:04d}``, so a ``REPRO_FAULTS`` plan can crash
  or stall one worker mid-``/identify`` and a test can assert the
  answer never changes.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import connection, get_all_start_methods, get_context
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.prefilter import (
    PrefilterCandidate,
    PrefilterIndex,
    merge_shard_candidates,
)
from ..runtime import faults
from ..runtime.config import env_float, env_int
from ..runtime.errors import ConfigurationError, TransientError
from ..runtime.shm import (
    GalleryStoreHandle,
    SharedGalleryStore,
    SharedGalleryView,
)
from ..runtime.supervisor import RestartBudget
from ..runtime.telemetry import get_logger
from .batching import BatchingConfig, MicroBatcher
from .gallery import UnknownIdentityError
from .stats import (
    WORKER_DISPATCHES,
    WORKER_JOBS,
    WORKER_RESPAWNS,
    WORKER_SHARD_SIZE,
    ServiceStats,
)

_log = get_logger("service.workers")


class WorkerBrokenError(TransientError):
    """One worker's RPC failed (crash, stall, or torn pipe); retryable."""


class WorkerPoolDegradedError(TransientError):
    """The pool exhausted its respawn budget; serve in-process instead."""


def shard_of(identity: str, n_workers: int) -> int:
    """The worker owning ``identity``: stable BLAKE2b hash mod pool width.

    Keyed on the identity alone — not the device — so every device's
    enrollment of one identity shares a worker, and independent of
    process seeds or dict order so restarts preserve ownership.
    """
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    digest = hashlib.blake2b(identity.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_workers


@dataclass(frozen=True)
class WorkerPoolConfig:
    """Sharded-pool knobs (all overridable via ``REPRO_SERVE_*``).

    Attributes
    ----------
    workers:
        Pool width (``REPRO_SERVE_WORKERS``).  0 or 1 keeps the
        in-process path — the bit-identical control arm.
    rpc_timeout_s:
        Seconds one worker RPC may take before the worker is declared
        stalled and respawned (``REPRO_SERVE_WORKER_TIMEOUT_S``).
    respawn_budget:
        Respawns tolerated before the pool degrades to in-process
        serving (``REPRO_SERVE_WORKER_RESPAWNS``).
    """

    workers: int = 0
    rpc_timeout_s: float = 60.0
    respawn_budget: int = 3

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.rpc_timeout_s <= 0:
            raise ConfigurationError(
                f"rpc_timeout_s must be > 0, got {self.rpc_timeout_s}"
            )
        if self.respawn_budget < 1:
            raise ConfigurationError(
                f"respawn_budget must be >= 1, got {self.respawn_budget}"
            )

    @classmethod
    def from_environment(cls, **defaults: object) -> "WorkerPoolConfig":
        """Build a config; ``REPRO_SERVE_*`` variables win over defaults."""
        params: dict = dict(defaults)
        workers = env_int("REPRO_SERVE_WORKERS")
        if workers is not None:
            params["workers"] = workers
        timeout = env_float("REPRO_SERVE_WORKER_TIMEOUT_S")
        if timeout is not None:
            params["rpc_timeout_s"] = timeout
        respawns = env_int("REPRO_SERVE_WORKER_RESPAWNS")
        if respawns is not None:
            params["respawn_budget"] = respawns
        return cls(**params)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _WorkerShard:
    """One worker's slice of the gallery: templates + prefilter indexes.

    The base snapshot comes from the shared block (templates rebuilt
    lazily, descriptors zero-copy); deltas layer enrollments and
    deletions on top.  Key conventions mirror
    :meth:`~repro.service.gallery.GalleryIndex.candidates`: bare
    identities within one device scope, ``device/identity`` across
    devices.
    """

    def __init__(
        self,
        view: SharedGalleryView,
        worker_id: int,
        n_workers: int,
    ) -> None:
        self._view = view
        self._worker_id = worker_id
        self._n_workers = n_workers
        self._templates: Dict[Tuple[str, str], object] = {}
        self._indexes: Dict[str, PrefilterIndex] = {}
        self._owned: set = set()
        for device, identity in view.keys():
            if shard_of(identity, n_workers) != worker_id:
                continue
            self._owned.add((device, identity))
            index = self._indexes.get(device)
            if index is None:
                index = PrefilterIndex()
                self._indexes[device] = index
            index.add(identity, view.descriptor(device, identity))

    def __len__(self) -> int:
        return len(self._owned)

    def apply_enroll(self, device, identity, template, descriptor) -> None:
        index = self._indexes.get(device)
        if index is None:
            index = PrefilterIndex()
            self._indexes[device] = index
        if identity in index:
            index.remove(identity)
        index.add(identity, np.asarray(descriptor, dtype=np.float64))
        self._templates[(device, identity)] = template
        self._owned.add((device, identity))

    def apply_delete(self, device, identity) -> None:
        self._owned.discard((device, identity))
        self._templates.pop((device, identity), None)
        index = self._indexes.get(device)
        if index is not None and identity in index:
            index.remove(identity)

    def template(self, device: str, identity: str):
        """The owned template, or :class:`UnknownIdentityError`."""
        if (device, identity) not in self._owned:
            raise UnknownIdentityError(identity, device)
        cached = self._templates.get((device, identity))
        if cached is not None:
            return cached
        return self._view.template(device, identity)

    def scope(self, device: Optional[str]) -> List[Tuple[str, str, str]]:
        """Sorted ``(key, device, identity)`` of owned records in scope."""
        if device is not None:
            return sorted(
                (identity, dev, identity)
                for dev, identity in self._owned
                if dev == device
            )
        return sorted(
            (f"{dev}/{identity}", dev, identity)
            for dev, identity in self._owned
        )

    def prefilter(
        self, vector: np.ndarray, device: Optional[str], k: int
    ) -> Tuple[int, List[Tuple[str, float, int]]]:
        """Local coarse top-K over the shard, exactly as the parent would."""
        if device is not None:
            index = self._indexes.get(device)
            if index is None:
                return 0, []
            local = index.top_k(vector, k)
            return len(index), [(c.key, c.distance, c.rank) for c in local]
        shards = []
        for dev in sorted(self._indexes):
            local = self._indexes[dev].top_k(vector, k)
            shards.append([
                PrefilterCandidate(
                    key=f"{dev}/{c.key}", distance=c.distance, rank=c.rank
                )
                for c in local
            ])
        merged = merge_shard_candidates(shards, k)
        return len(self._owned), [
            (c.key, c.distance, c.rank) for c in merged
        ]


def _worker_main(
    worker_id: int,
    n_workers: int,
    conn: "connection.Connection",
    handle: GalleryStoreHandle,
    matcher_factory,
    deltas: Sequence[tuple],
) -> None:
    """Worker process body: map the shard, then answer RPCs until EOF."""
    # The parent owns Ctrl-C shutdown; a worker must only exit when its
    # pipe closes (or it is told to stop), never from a forwarded SIGINT.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    view = SharedGalleryView.attach(handle)
    shard = _WorkerShard(view, worker_id, n_workers)
    for delta in deltas:
        if delta[0] == "enroll":
            shard.apply_enroll(delta[1], delta[2], delta[3], delta[4])
        elif delta[0] == "delete":
            shard.apply_delete(delta[1], delta[2])
    matcher = matcher_factory()
    chaos = faults.faults_requested()
    seq = 0

    def _perturb(op: str) -> None:
        nonlocal seq
        if chaos:
            faults.perturb(f"serve-w{worker_id}-{op}-{seq:04d}")
        seq += 1

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        try:
            op = msg[0]
            if op == "ping":
                reply = ("ok", {"worker": worker_id, "owned": len(shard)})
            elif op == "stop":
                try:
                    conn.send(("ok", None))
                except (BrokenPipeError, OSError):
                    pass
                break
            elif op == "enroll":
                _, device, identity, template, descriptor = msg
                shard.apply_enroll(device, identity, template, descriptor)
                reply = ("ok", len(shard))
            elif op == "delete":
                _, device, identity = msg
                shard.apply_delete(device, identity)
                reply = ("ok", len(shard))
            elif op == "score":
                _, probes, jobs = msg
                _perturb("score")
                pairs = [
                    (probes[probe_idx], shard.template(device, identity))
                    for probe_idx, device, identity in jobs
                ]
                scores = matcher.score_pairs(pairs)
                reply = ("ok", [float(s) for s in scores])
            elif op == "rank":
                _, probe, device, limit = msg
                _perturb("rank")
                scope = shard.scope(device)
                scores = matcher.score_pairs([
                    (probe, shard.template(dev, identity))
                    for _, dev, identity in scope
                ])
                ranked = sorted(
                    zip((key for key, _, _ in scope), scores),
                    key=lambda item: (-item[1], item[0]),
                )[: max(0, limit)]
                reply = (
                    "ok",
                    (len(scope), [(key, float(s)) for key, s in ranked]),
                )
            elif op == "prefilter":
                _, vector, device, k = msg
                _perturb("prefilter")
                reply = ("ok", shard.prefilter(vector, device, k))
            else:
                reply = ("err", "internal", f"unknown op {op!r}")
        except UnknownIdentityError as exc:
            reply = ("err", "unknown_identity", (exc.device, exc.identity))
        except TransientError as exc:
            reply = ("err", "transient", str(exc))
        except Exception as exc:  # noqa: BLE001 - report, don't die
            reply = ("err", "internal", repr(exc))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    view.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _WorkerHandle:
    """Parent-side state of one live worker process."""

    __slots__ = ("worker_id", "process", "conn", "lock", "generation")

    def __init__(self, worker_id, process, conn, generation) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        # One RPC at a time per worker pipe: send and recv must pair up.
        self.lock = threading.Lock()
        self.generation = generation


class _ShardClient:
    """Matcher-shaped proxy that forwards pair scoring to one worker.

    Fed to that worker's :class:`MicroBatcher`, so batched ``/verify``
    and two-stage rescoring reuse all the coalescing machinery — the
    "matcher call" is an RPC whose gallery sides are (device, identity)
    references resolved inside the owning worker.
    """

    def __init__(self, pool: "WorkerPool", worker_id: int) -> None:
        self._pool = pool
        self._worker_id = worker_id

    def score_pairs(self, pairs) -> List[float]:
        probes: List[object] = []
        probe_ids: Dict[int, int] = {}
        jobs = []
        for probe, ref in pairs:
            probe_idx = probe_ids.get(id(probe))
            if probe_idx is None:
                probe_idx = len(probes)
                probe_ids[id(probe)] = probe_idx
                probes.append(probe)
            jobs.append((probe_idx, ref[0], ref[1]))
        return self._pool._dispatch(
            self._worker_id, ("score", probes, jobs), jobs=len(jobs)
        )

    def match(self, probe, ref) -> float:
        """The unbatched arm: one pair, one RPC."""
        return self.score_pairs([(probe, ref)])[0]


class WorkerPool:
    """A supervised, sharded pool of matcher worker processes.

    Owns the shared-memory gallery snapshot, the worker processes and
    their pipes, one :class:`MicroBatcher` per worker (shared batch-id
    sequence), and the delta log that keeps respawned workers current.
    All public entry points are coroutines awaited from the serving
    event loop; the blocking pipe RPCs run on a private thread pool.

    Raises :class:`WorkerPoolDegradedError` from any dispatch once the
    respawn budget is exhausted — the server's cue to fall back to its
    in-process path.
    """

    def __init__(
        self,
        gallery,
        matcher_factory,
        stats: Optional[ServiceStats] = None,
        config: Optional[WorkerPoolConfig] = None,
        batching: Optional[BatchingConfig] = None,
    ) -> None:
        self._gallery = gallery
        self._matcher_factory = matcher_factory
        self._stats = stats if stats is not None else ServiceStats()
        self._config = (
            config if config is not None else WorkerPoolConfig.from_environment()
        )
        if self._config.workers < 2:
            raise ConfigurationError(
                f"a worker pool needs >= 2 workers, got {self._config.workers}"
            )
        self._batching = (
            batching if batching is not None else BatchingConfig.from_environment()
        )
        methods = get_all_start_methods()
        self._ctx = get_context("fork" if "fork" in methods else None)
        self._handles: List[Optional[_WorkerHandle]] = []
        self._batchers: List[MicroBatcher] = []
        self._store: Optional[SharedGalleryStore] = None
        # The delta log mirrors the gallery WAL: one latest op per
        # (device, identity), tagged with its WAL LSN.  Per-key ops are
        # last-write-wins and cross-key ops commute, so retaining only
        # the newest op per key is lossless — the log stays bounded by
        # the gallery size instead of growing with write traffic.
        self._deltas: Dict[Tuple[str, str], tuple] = {}
        self._lock = threading.Lock()
        self._budget = RestartBudget(self._config.respawn_budget)
        self._degraded = False
        self._fanout: Optional[ThreadPoolExecutor] = None
        self._seq_lock = threading.Lock()
        self._batch_seq = 0

    # -- shared batch ids across the per-worker batchers ----------------
    def _next_batch_id(self) -> int:
        with self._seq_lock:
            self._batch_seq += 1
            return self._batch_seq

    @property
    def workers(self) -> int:
        return self._config.workers

    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def alive_count(self) -> int:
        if self._degraded:
            return 0
        return sum(
            1
            for handle in self._handles
            if handle is not None and handle.process.is_alive()
        )

    @property
    def queue_depth(self) -> int:
        return sum(b.queue_depth for b in self._batchers)

    @property
    def delta_count(self) -> int:
        """Live entries in the compacted respawn delta log."""
        with self._lock:
            return len(self._deltas)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int, generation: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        deltas = [
            d
            for (_device, identity), d in self._deltas.items()
            if shard_of(identity, self._config.workers) == worker_id
        ]
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._config.workers,
                child_conn,
                self._store.handle(),
                self._matcher_factory,
                deltas,
            ),
            name=f"repro-serve-w{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(worker_id, process, parent_conn, generation)

    async def start(self) -> None:
        """Pack the gallery snapshot, spawn the pool, start the batchers."""
        if faults.faults_requested():
            faults.ensure_ledger()
        self._store = SharedGalleryStore.pack_gallery(self._gallery)
        loop = asyncio.get_running_loop()
        self._fanout = ThreadPoolExecutor(
            max_workers=self._config.workers,
            thread_name_prefix="repro-pool-rpc",
        )
        self._handles = [
            self._spawn(i, generation=0) for i in range(self._config.workers)
        ]
        pings = await asyncio.gather(*[
            loop.run_in_executor(self._fanout, self._rpc, i, ("ping",))
            for i in range(self._config.workers)
        ])
        for ping in pings:
            self._stats.record(
                WORKER_SHARD_SIZE, ping["owned"], worker=ping["worker"]
            )
        for worker_id in range(self._config.workers):
            batcher = MicroBatcher(
                _ShardClient(self, worker_id),
                stats=self._stats,
                config=self._batching,
                name=f"w{worker_id}",
                sequence=self._next_batch_id,
            )
            await batcher.start()
            self._batchers.append(batcher)
        _log.info(
            "worker pool started",
            extra={"data": {
                "workers": self._config.workers,
                "records": len(self._store.handle().index),
                "shards": {p["worker"]: p["owned"] for p in pings},
            }},
        )

    async def stop(self) -> None:
        """Stop the batchers, retire the workers, unlink the snapshot."""
        for batcher in self._batchers:
            await batcher.stop()
        self._batchers = []
        with self._lock:
            handles, self._handles = self._handles, []
        for handle in handles:
            if handle is None:
                continue
            try:
                with handle.lock:
                    handle.conn.send(("stop",))
                    handle.conn.poll(1.0)
            except (BrokenPipeError, OSError):
                pass
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            handle.conn.close()
        if self._fanout is not None:
            self._fanout.shutdown(wait=True)
            self._fanout = None
        if self._store is not None:
            # Unlink the /dev/shm block: leaked segments across restarts
            # are exactly the failure the teardown tests assert against.
            self._store.destroy()
            self._store = None

    # ------------------------------------------------------------------
    # RPC core: retry-on-break, respawn, degrade
    # ------------------------------------------------------------------
    def _rpc_once(self, handle: _WorkerHandle, msg: tuple):
        try:
            with handle.lock:
                handle.conn.send(msg)
                if not handle.conn.poll(self._config.rpc_timeout_s):
                    raise WorkerBrokenError(
                        f"worker {handle.worker_id} stalled past "
                        f"{self._config.rpc_timeout_s:g}s on {msg[0]!r}"
                    )
                reply = handle.conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerBrokenError(
                f"worker {handle.worker_id} pipe failed on {msg[0]!r}: {exc!r}"
            ) from None
        if reply[0] == "ok":
            return reply[1]
        code, detail = reply[1], reply[2]
        if code == "unknown_identity":
            device, identity = detail
            raise UnknownIdentityError(identity, device)
        if code == "transient":
            raise TransientError(detail)
        raise WorkerBrokenError(
            f"worker {handle.worker_id} internal failure: {detail}"
        )

    def _rpc(self, worker_id: int, msg: tuple):
        """Send one message; on worker breakage, respawn and re-send.

        The in-flight message *is* the queue entry — re-sending it to
        the respawned worker is the requeue.  Loops until the reply
        arrives or the pool degrades.
        """
        while True:
            if self._degraded:
                raise WorkerPoolDegradedError("worker pool is degraded")
            with self._lock:
                handle = self._handles[worker_id] if self._handles else None
            if handle is None:
                raise WorkerPoolDegradedError("worker pool is stopped")
            try:
                return self._rpc_once(handle, msg)
            except WorkerBrokenError as exc:
                self._note_break(handle, exc)

    def _dispatch(self, worker_id: int, msg: tuple, jobs: int = 1):
        """An accounted RPC: tallies the per-worker dispatch counters."""
        result = self._rpc(worker_id, msg)
        self._stats.record(WORKER_DISPATCHES, worker=worker_id)
        self._stats.record(WORKER_JOBS, jobs, worker=worker_id)
        return result

    def _note_break(self, broken: _WorkerHandle, exc: WorkerBrokenError) -> None:
        """Handle one observed breakage: respawn the worker or degrade."""
        with self._lock:
            if self._degraded:
                raise WorkerPoolDegradedError("worker pool is degraded")
            if not self._handles:
                raise WorkerPoolDegradedError("worker pool is stopped")
            current = self._handles[broken.worker_id]
            if current is not broken:
                return  # another thread already respawned this worker
            _log.warning(
                "serving worker broke",
                extra={"data": {
                    "worker": broken.worker_id,
                    "error": str(exc),
                    "respawns_used": self._budget.restarts + 1,
                }},
            )
            broken.process.terminate()
            broken.process.join(timeout=2.0)
            broken.conn.close()
            if self._budget.note_restart():
                self._degraded = True
                for handle in self._handles:
                    if handle is not None and handle is not broken:
                        handle.process.terminate()
                _log.error(
                    "worker pool degraded to in-process serving",
                    extra={"data": {"respawns": self._budget.restarts}},
                )
                raise WorkerPoolDegradedError(
                    f"worker pool degraded after {self._budget.restarts} "
                    f"respawns"
                )
            replacement = self._spawn(
                broken.worker_id, generation=broken.generation + 1
            )
            self._handles[broken.worker_id] = replacement
            self._stats.record(WORKER_RESPAWNS, worker=broken.worker_id)

    # ------------------------------------------------------------------
    # Serving entry points
    # ------------------------------------------------------------------
    def _resolve(self, device: Optional[str], key: str) -> Tuple[str, str]:
        """(device, identity) of one candidate key, parent-side."""
        if device is not None:
            return device, key
        dev, _, identity = key.partition("/")
        return dev, identity

    async def score_keyed(
        self,
        probe,
        device: Optional[str],
        keys: Sequence[str],
        timeout_s: Optional[float] = None,
    ) -> np.ndarray:
        """Scores of ``probe`` against candidate ``keys``, in input order.

        Each pair job rides the owning worker's micro-batch queue, so
        concurrent requests coalesce per worker exactly as the
        in-process path coalesces globally.
        """
        if not keys:
            return np.empty(0, dtype=np.float64)
        per_worker: Dict[int, List[Tuple[int, Tuple[str, str]]]] = {}
        for position, key in enumerate(keys):
            dev, identity = self._resolve(device, key)
            worker_id = shard_of(identity, self._config.workers)
            per_worker.setdefault(worker_id, []).append(
                (position, (dev, identity))
            )
        ordered = sorted(per_worker)
        results = await asyncio.gather(*[
            self._batchers[worker_id].score(
                [(probe, ref) for _, ref in per_worker[worker_id]],
                timeout_s=timeout_s,
            )
            for worker_id in ordered
        ])
        scores = np.empty(len(keys), dtype=np.float64)
        for worker_id, worker_scores in zip(ordered, results):
            for (position, _), score in zip(per_worker[worker_id], worker_scores):
                scores[position] = score
        return scores

    async def rank(
        self, probe, device: Optional[str], limit: int
    ) -> Tuple[int, List[Tuple[str, float]]]:
        """Exact 1:N: every worker ranks its shard, the parent merges.

        Returns ``(gallery_size, ranked)`` where ``ranked`` is the
        global top-``limit`` as ``(key, score)``, ordered by
        ``(-score, key)`` — the in-process comparator, so tie-breaks
        are bit-identical.  Exactness of local truncation: any global
        top-``limit`` candidate is in its own shard's top-``limit``
        under the same total order.
        """
        loop = asyncio.get_running_loop()
        replies = await asyncio.gather(*[
            loop.run_in_executor(
                self._fanout,
                self._dispatch,
                worker_id,
                ("rank", probe, device, limit),
            )
            for worker_id in range(self._config.workers)
        ])
        gallery_size = sum(scope for scope, _ in replies)
        pooled = [pair for _, ranked in replies for pair in ranked]
        merged = sorted(pooled, key=lambda item: (-item[1], item[0]))[
            : max(0, limit)
        ]
        return gallery_size, merged

    async def prefilter(
        self, vector: np.ndarray, device: Optional[str], k: int
    ) -> Tuple[int, List[PrefilterCandidate]]:
        """Two-stage coarse top-K across all shards, exactly merged."""
        loop = asyncio.get_running_loop()
        replies = await asyncio.gather(*[
            loop.run_in_executor(
                self._fanout,
                self._dispatch,
                worker_id,
                ("prefilter", vector, device, k),
            )
            for worker_id in range(self._config.workers)
        ])
        gallery_size = sum(scope for scope, _ in replies)
        shards = [
            [
                PrefilterCandidate(key=key, distance=distance, rank=rank)
                for key, distance, rank in ranked
            ]
            for _, ranked in replies
        ]
        return gallery_size, merge_shard_candidates(shards, k)

    async def apply_enroll(
        self, device: str, identity: str, template, descriptor,
        lsn: int = 0,
    ) -> None:
        """Propagate one enrollment to its owner (and the delta log).

        ``lsn`` is the WAL sequence number that durably logged the op
        (0 when no log is involved); it tags the delta for
        observability and keeps the pool's log aligned with the WAL.
        """
        worker_id = shard_of(identity, self._config.workers)
        with self._lock:
            if self._degraded:
                return
            # Logged before the RPC: a worker that crashes mid-apply is
            # respawned *with* this delta, so the retry cannot lose it.
            self._deltas[(device, identity)] = (
                "enroll", device, identity, template, descriptor, int(lsn)
            )
        loop = asyncio.get_running_loop()
        try:
            owned = await loop.run_in_executor(
                self._fanout,
                self._rpc,
                worker_id,
                ("enroll", device, identity, template, descriptor),
            )
        except WorkerPoolDegradedError:
            return
        self._stats.record(WORKER_SHARD_SIZE, int(owned), worker=worker_id)

    async def apply_delete(
        self, device: str, identity: str, lsn: int = 0
    ) -> None:
        """Propagate one deletion to its owner (and the delta log)."""
        worker_id = shard_of(identity, self._config.workers)
        with self._lock:
            if self._degraded:
                return
            self._deltas[(device, identity)] = (
                "delete", device, identity, int(lsn)
            )
        loop = asyncio.get_running_loop()
        try:
            owned = await loop.run_in_executor(
                self._fanout, self._rpc, worker_id, ("delete", device, identity)
            )
        except WorkerPoolDegradedError:
            return
        self._stats.record(WORKER_SHARD_SIZE, int(owned), worker=worker_id)


__all__ = [
    "WorkerPool",
    "WorkerPoolConfig",
    "WorkerBrokenError",
    "WorkerPoolDegradedError",
    "shard_of",
]
