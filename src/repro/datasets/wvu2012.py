"""End-to-end reconstruction of the paper's WVU 2012 dataset.

``build_collection`` runs the full collection campaign for a
configuration: synthesize the population, march every subject through
the fixed-order protocol, and return the complete
:class:`~repro.sensors.protocol.Collection`.

The collection is a *pure function of the configuration* — the same
``StudyConfig`` always reproduces the identical dataset.  That purity
pays twice:

* **Persistence.**  Each subject's session is addressed by a
  content digest (:func:`subject_artifact_digest`) of everything that
  determines its bytes — population seed, the subject's sampled traits,
  the device profiles, the protocol settings and the pipeline's
  code-version salt.  With an :class:`~repro.runtime.artifacts.ArtifactStore`
  configured, ``build_collection`` becomes *load-or-build*: warm
  subjects are decoded from the ``impressions`` tier, only the misses
  are acquired, and freshly built sessions stream back into the store
  (plus a compact ``quality`` tier bundle for analyses that never need
  minutiae).

* **Parallelism.**  Misses fan out over
  :func:`~repro.runtime.parallel.parallel_map_batched`: workers are
  seeded once with ``(config, settings)`` by an initializer, each batch
  acquires a shard of subjects, and ``on_result`` streams completed
  sessions into the store as they arrive.  Results are identical to the
  serial path because every impression's randomness comes from the
  subject's own seed-tree node.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.artifacts import ArtifactStore, canonical_digest
from ..runtime.config import StudyConfig, resolve_worker_count
from ..runtime.parallel import parallel_map_batched
from ..runtime.progress import NullProgress, ProgressReporter
from ..runtime.rng import SeedTree
from ..runtime.telemetry import (
    TelemetryRecorder,
    get_logger,
    get_recorder,
    set_recorder,
)
from ..sensors.base import Impression
from ..sensors.codec import (
    impressions_from_arrays,
    impressions_to_arrays,
    quality_to_arrays,
)
from ..sensors.protocol import (
    Collection,
    ProtocolSettings,
    acquire_subject_session,
    build_sensor,
)
from ..sensors.registry import DEVICE_ORDER, get_profile
from ..synthesis.population import Population

#: Per-process sensor instances (signature fields are pure device state).
_SENSOR_CACHE: dict = {}

#: Worker-process state seeded by :func:`_init_acquire_worker`.
_WORKER_STATE: dict = {}

_log = get_logger("datasets")


def _sensors_for(device_order: Sequence[str]) -> dict:
    key = tuple(device_order)
    if key not in _SENSOR_CACHE:
        _SENSOR_CACHE[key] = {d: build_sensor(d) for d in device_order}
    return _SENSOR_CACHE[key]


def subject_session(
    config: StudyConfig,
    subject_id: int,
    settings: ProtocolSettings = ProtocolSettings(),
) -> List[Impression]:
    """All impressions of one subject's collection session.

    Module-level and driven purely by ``(config, subject_id, settings)``
    so it can run in a worker process.
    """
    population = Population(config)
    subject = population.subject(subject_id)
    tree = SeedTree(config.master_seed).child("session", subject_id)
    sensors = _sensors_for(settings.device_order)
    return acquire_subject_session(
        subject,
        sensors,
        tree,
        finger_labels=population.finger_labels,
        settings=settings,
    )


def subject_artifact_digest(
    config: StudyConfig,
    subject_id: int,
    settings: ProtocolSettings = ProtocolSettings(),
    population: Optional[Population] = None,
) -> str:
    """Content address of one subject's acquired session.

    The digest covers every input that determines the session's bytes:
    the population seed, the subject's sampled traits (cheap — no master
    fingers are synthesized), the finger labels captured, the complete
    device profiles in capture order, and the protocol settings.  The
    code-version salt of :mod:`repro.runtime.artifacts` is folded in by
    :func:`~repro.runtime.artifacts.canonical_digest`, so a pipeline
    change reads every existing store as cold.
    """
    if population is None:
        population = Population(config)
    payload = {
        "population_seed": config.master_seed,
        "subject": subject_id,
        "traits": population.traits(subject_id),
        "fingers": list(population.finger_labels),
        "devices": [get_profile(d) for d in settings.device_order],
        "protocol": settings,
    }
    return canonical_digest(payload)


def _init_acquire_worker(config: StudyConfig, settings: ProtocolSettings) -> None:
    """Pool initializer: pin the acquisition context in this process."""
    _WORKER_STATE["config"] = config
    _WORKER_STATE["settings"] = settings


def _acquire_subject_shard(
    subject_ids: Sequence[int],
) -> List[Tuple[int, List[Impression]]]:
    """Worker body: acquire one shard of subjects (module-level, picklable)."""
    config = _WORKER_STATE["config"]
    settings = _WORKER_STATE["settings"]
    return [(sid, subject_session(config, sid, settings)) for sid in subject_ids]


def _acquire_subject_shard_with_metrics(
    subject_ids: Sequence[int],
) -> Tuple[List[Tuple[int, List[Impression]]], dict]:
    """Worker body used when telemetry is on: the shard plus its metrics.

    The shard records into a fresh recorder, so the snapshot covers
    exactly this shard whether it runs in a pool worker or in-process
    (the supervisor's serial fallback); the parent merges the snapshots.
    """
    previous = set_recorder(TelemetryRecorder())
    try:
        shard = _acquire_subject_shard(subject_ids)
        return shard, get_recorder().metrics.snapshot()
    finally:
        set_recorder(previous)


def _load_cached_subjects(
    artifacts: ArtifactStore,
    digests: Dict[int, str],
    recorder,
) -> Dict[int, List[Impression]]:
    """Decode every warm subject session; undecodable bundles are misses."""
    loaded: Dict[int, List[Impression]] = {}
    for sid, digest in digests.items():
        arrays = artifacts.load("impressions", digest)
        if arrays is None:
            continue
        try:
            loaded[sid] = impressions_from_arrays(arrays)
        except (KeyError, ValueError):
            # A bundle that deserializes but fails structural validation
            # is as useless as a torn npz: drop it and rebuild from seeds.
            artifacts.invalidate("impressions", digest)
            if recorder.active:
                recorder.count("artifacts.corrupt")
    return loaded


def _store_subject(
    artifacts: ArtifactStore,
    config: StudyConfig,
    digest: str,
    subject_id: int,
    impressions: List[Impression],
) -> None:
    """Persist one freshly acquired session (impressions + quality tiers)."""
    meta = {
        "subject": subject_id,
        "config_fingerprint": config.fingerprint(),
        "impressions": len(impressions),
    }
    artifacts.store(
        "impressions", digest, impressions_to_arrays(impressions), meta=meta
    )
    artifacts.store("quality", digest, quality_to_arrays(impressions), meta=meta)


def build_collection(
    config: StudyConfig,
    settings: ProtocolSettings = ProtocolSettings(),
    progress: Optional[ProgressReporter] = None,
    artifacts: Optional[ArtifactStore] = None,
) -> Collection:
    """Acquire (or warm-load) the whole campaign for ``config``.

    With ``artifacts`` enabled (explicitly, or via ``config.artifact_dir``),
    each subject session is first looked up by content digest; only the
    misses are acquired, fanned out over ``config.n_workers`` processes,
    and streamed back into the store.  The returned collection is
    bit-identical across cold, warm and parallel builds: impressions are
    assembled in subject order and every impression's randomness derives
    from its own seed-tree node.
    """
    if artifacts is None:
        artifacts = ArtifactStore(config.artifact_dir)
    if progress is None:
        progress = NullProgress(total=config.n_subjects, label="collection")
    recorder = get_recorder()
    subject_ids = list(range(config.n_subjects))
    per_subject: Dict[int, List[Impression]] = {}
    with recorder.span("acquisition"):
        population = Population(config)
        digests: Dict[int, str] = {}
        if artifacts.enabled:
            with recorder.span("acquisition.digest"):
                digests = {
                    sid: subject_artifact_digest(
                        config, sid, settings, population=population
                    )
                    for sid in subject_ids
                }
            with recorder.span("acquisition.load"):
                per_subject = _load_cached_subjects(artifacts, digests, recorder)
            for _ in per_subject:
                progress.update()
        missing = [sid for sid in subject_ids if sid not in per_subject]
        if recorder.active:
            recorder.count("acquisition.subjects_loaded",
                           len(subject_ids) - len(missing))
            recorder.count("acquisition.subjects_built", len(missing))
        if missing:
            _acquire_missing(
                config, settings, artifacts, digests, missing,
                per_subject, progress, recorder,
            )
    collection = Collection()
    for sid in subject_ids:
        _tally_impressions(recorder, collection, per_subject[sid])
    progress.finish()
    _log.info(
        "collection acquired",
        extra={"data": {"subjects": config.n_subjects,
                        "loaded": config.n_subjects - len(missing),
                        "built": len(missing),
                        "impressions": len(collection)}},
    )
    return collection


def _acquire_missing(
    config: StudyConfig,
    settings: ProtocolSettings,
    artifacts: ArtifactStore,
    digests: Dict[int, str],
    missing: List[int],
    per_subject: Dict[int, List[Impression]],
    progress: ProgressReporter,
    recorder,
) -> None:
    """Acquire the cold subjects, parallel when configured, and store them."""

    def _collect(shard: List[Tuple[int, List[Impression]]]) -> None:
        for sid, impressions in shard:
            per_subject[sid] = impressions
            if artifacts.enabled:
                _store_subject(artifacts, config, digests[sid], sid, impressions)
            progress.update()

    workers = resolve_worker_count(config.n_workers)
    start = time.perf_counter()
    with recorder.span("acquisition.build"):
        if workers > 1 and len(missing) >= 8:
            shard_size = max(1, len(missing) // (workers * 4))
            shards = [
                missing[i : i + shard_size]
                for i in range(0, len(missing), shard_size)
            ]

            def _collect_with_metrics(result) -> None:
                # Worker-side acquisition.* counters ride back with each
                # shard; merging keeps them equal to a serial build's.
                shard, snapshot = result
                recorder.merge_metrics(snapshot)
                _collect(shard)

            parallel_map_batched(
                _acquire_subject_shard_with_metrics
                if recorder.active else _acquire_subject_shard,
                shards,
                n_workers=workers,
                initializer=_init_acquire_worker,
                initargs=(config, settings),
                on_result=_collect_with_metrics if recorder.active else _collect,
            )
            if recorder.active:
                recorder.count("acquire.parallel.subjects", len(missing))
                recorder.observe(
                    "acquire.parallel.seconds", time.perf_counter() - start
                )
        else:
            _init_acquire_worker(config, settings)
            _collect([(sid, subject_session(config, sid, settings))
                      for sid in missing])
            if recorder.active:
                recorder.count("acquire.serial.subjects", len(missing))
                recorder.observe(
                    "acquire.serial.seconds", time.perf_counter() - start
                )


def load_quality_arrays(
    config: StudyConfig,
    settings: ProtocolSettings = ProtocolSettings(),
    artifacts: Optional[ArtifactStore] = None,
) -> Optional[Dict[str, np.ndarray]]:
    """Warm-load the whole campaign's quality evidence, minutiae-free.

    Returns the concatenated per-impression quality arrays
    (``subject_id``, ``finger``, ``device``, ``set_index``, ``nfiq``,
    ``features``, ``feature_counts`` — see
    :func:`repro.sensors.codec.quality_to_arrays`) when **every** subject
    is warm in the ``quality`` tier, else ``None``: quality analyses
    either get the complete picture cheaply or fall back to a full
    ``build_collection``.
    """
    if artifacts is None:
        artifacts = ArtifactStore(config.artifact_dir)
    if not artifacts.enabled:
        return None
    population = Population(config)
    bundles = []
    for sid in range(config.n_subjects):
        digest = subject_artifact_digest(config, sid, settings, population=population)
        arrays = artifacts.load("quality", digest)
        if arrays is None:
            return None
        bundles.append(arrays)
    return {
        name: np.concatenate([bundle[name] for bundle in bundles])
        for name in bundles[0]
    }


def warm_artifacts(
    config: StudyConfig,
    settings: ProtocolSettings = ProtocolSettings(),
    progress: Optional[ProgressReporter] = None,
    artifacts: Optional[ArtifactStore] = None,
) -> Dict[str, Dict[str, int]]:
    """Populate the artifact store for ``config`` and report its stats.

    A thin wrapper over :func:`build_collection` for pre-warming (the
    ``repro warm`` CLI command and scheduled cache-priming jobs): builds
    whatever is cold, discards the in-memory collection, and returns the
    store's per-tier footprint.
    """
    if artifacts is None:
        artifacts = ArtifactStore(config.artifact_dir)
    build_collection(config, settings, progress=progress, artifacts=artifacts)
    return artifacts.stats()


def _tally_impressions(recorder, collection: Collection, impressions) -> None:
    """Add a session's impressions, keeping the NFIQ tally counters."""
    for impression in impressions:
        collection.add(impression)
    if recorder.active:
        recorder.count("acquisition.impressions", len(impressions))
        for impression in impressions:
            recorder.count(f"acquisition.nfiq.level.{impression.nfiq}")


def default_device_order() -> Sequence[str]:
    """The fixed capture order of the paper's protocol."""
    return DEVICE_ORDER


__all__ = [
    "build_collection",
    "subject_session",
    "subject_artifact_digest",
    "load_quality_arrays",
    "warm_artifacts",
    "default_device_order",
]
