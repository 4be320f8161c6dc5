"""The interoperability study orchestrator.

:class:`InteroperabilityStudy` is the library's main entry point: it
owns the population, the collection campaign, the matcher and the score
sets, and exposes one method per analysis the paper reports.  Everything
is lazy and memoized; with a configured cache directory, score sets
survive across processes so a benchmark run never recomputes what an
earlier run already measured.

Typical use::

    from repro.api import InteroperabilityStudy, StudyConfig

    study = InteroperabilityStudy(StudyConfig(n_subjects=80))
    sets = study.score_sets()          # DMG / DMI / DDMG / DDMI
    fnmr = study.fnmr_matrix(1e-4)     # Table 5
    pvals = study.kendall_matrix()     # Table 4
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..matcher import build_matcher
from ..runtime.artifacts import ArtifactStore
from ..runtime.cache import ScoreCache
from ..runtime.config import StudyConfig, resolve_worker_count
from ..runtime.errors import ConfigurationError
from ..runtime.parallel import parallel_map_batched
from ..runtime.supervisor import RetryPolicy
from ..runtime.progress import ProgressReporter
from ..runtime.rng import SeedTree
from ..runtime.shm import SharedTemplateStore, SharedTemplateView, StoreHandle
from ..runtime.telemetry import (
    TelemetryRecorder,
    get_logger,
    get_recorder,
    set_recorder,
)
from ..sensors.protocol import Collection, ProtocolSettings
from ..datasets.wvu2012 import build_collection
from ..stats.kendall import KendallResult
from .scores import (
    GALLERY_SET,
    MatchJob,
    ScoreSet,
    enumerate_ddmg_jobs,
    enumerate_dmg_jobs,
    probe_set_for,
    run_jobs,
    sample_ddmi_jobs,
    sample_dmi_jobs,
)

# ----------------------------------------------------------------------
# Process-pool plumbing (module level for picklability)
# ----------------------------------------------------------------------
_WORKER_STATE: dict = {}

_log = get_logger("study")


def _init_score_worker(
    source: Union[Collection, StoreHandle],
    matcher_name: str,
) -> None:
    """Seed one pool worker's state.

    ``source`` is normally a :class:`StoreHandle` — the worker *maps* the
    parent's shared-memory template block instead of receiving a pickled
    copy of the whole collection.  A raw :class:`Collection` still works
    (tests, and the fallback when shared memory is unavailable).  The
    view's template memo and the matcher's frame memo live as long as
    the worker, so each worker builds a template or frame at most once
    per dispatch, whichever scenarios' chunks it runs.
    """
    if isinstance(source, StoreHandle):
        _WORKER_STATE["collection"] = SharedTemplateView.attach(source)
    else:
        _WORKER_STATE["collection"] = source
    _WORKER_STATE["matcher"] = build_matcher(matcher_name)


def _run_job_chunk(args: Tuple[Sequence[MatchJob], str, str]) -> ScoreSet:
    jobs, finger, scenario = args
    return run_jobs(
        jobs, _WORKER_STATE["collection"], _WORKER_STATE["matcher"], finger, scenario
    )


def _run_job_chunk_with_metrics(
    args: Tuple[Sequence[MatchJob], str, str],
) -> Tuple[ScoreSet, dict]:
    """Worker body used when telemetry is on: chunk result + its metrics.

    The chunk records into a fresh recorder, so the snapshot covers
    exactly this chunk whether it runs in a pool worker or in-process
    (the supervisor's serial fallback, which must leave the parent's
    recorder in place); the parent merges the snapshots in order.
    """
    previous = set_recorder(TelemetryRecorder())
    try:
        score_set = _run_job_chunk(args)
        return score_set, get_recorder().metrics.snapshot()
    finally:
        set_recorder(previous)


#: Below this many jobs in one dispatch (all groups together), a pool
#: never pays for its start-up and its workers' template rebuilds.
_MIN_JOBS_FOR_POOL = 256

#: The order :meth:`InteroperabilityStudy.score_sets` runs the Table 2
#: scenarios in (:data:`~repro.core.scores.SCENARIOS` lists them by
#: column).
_SCORE_ORDER = ("DMG", "DDMG", "DMI", "DDMI")

#: One unit of :meth:`InteroperabilityStudy._execute`: ``(label,
#: scenario, jobs)``.  The label names task keys, checkpoints and
#: progress; the scenario is the ScoreSet's and the matcher counters'.
ScoreGroup = Tuple[str, str, Sequence[MatchJob]]


@dataclass
class _ChunkedGroup:
    """One group's chunk partition and delivery state in a pooled run.

    ``parts`` maps a chunk index to its ScoreSet once resumed from a
    checkpoint or delivered (``None`` for a batch skipped under
    ``fail_fast=False``); the group is complete when every chunk has an
    entry.
    """

    label: str
    scenario: str
    total: int
    chunks: List[Tuple[List[MatchJob], str, str]]
    ckpt_prefix: Optional[str] = None
    parts: Dict[int, Optional[ScoreSet]] = field(default_factory=dict)
    progress: Optional[ProgressReporter] = None

    def ckpt_key(self, index: int) -> str:
        """Cache key of chunk ``index``'s checkpoint."""
        return f"{self.ckpt_prefix}-{index:04d}"


@dataclass(frozen=True)
class ExecutionOutcome:
    """Result of one :meth:`InteroperabilityStudy._execute` dispatch.

    ``positions`` indexes the *submitted* job list: under fail-fast (the
    default) it is simply ``arange(total)``, while salvage mode
    (``fail_fast=False``) leaves gaps where permanently failed batches
    were skipped — the rows of ``score_set`` line up with ``positions``.
    """

    score_set: ScoreSet
    positions: np.ndarray
    total: int

    @property
    def complete(self) -> bool:
        """Whether every submitted job produced a score."""
        return len(self.positions) == self.total

    @property
    def skipped(self) -> int:
        """How many submitted jobs were skipped."""
        return self.total - len(self.positions)


def _empty_score_set(scenario: str, matcher_name: str) -> ScoreSet:
    """A zero-row ScoreSet (every submitted batch was skipped)."""
    return ScoreSet(
        scenario=scenario,
        matcher_name=matcher_name,
        scores=np.empty(0, dtype=np.float64),
        subject_gallery=np.empty(0, dtype=np.int64),
        subject_probe=np.empty(0, dtype=np.int64),
        device_gallery=np.empty(0, dtype="<U2"),
        device_probe=np.empty(0, dtype="<U2"),
        nfiq_gallery=np.empty(0, dtype=np.int64),
        nfiq_probe=np.empty(0, dtype=np.int64),
    )


class InteroperabilityStudy:
    """One full run of the paper's experiment.

    Parameters
    ----------
    config:
        Scale, seed, matcher and parallelism settings.
    cache:
        Optional on-disk score cache; defaults to the directory named in
        ``config.cache_dir`` (or no caching when that is ``None``).
    artifacts:
        Optional content-addressed artifact store backing the collection
        build; defaults to ``config.artifact_dir`` (or a disabled store
        when that is ``None``, in which case every cold process acquires
        the dataset from seeds).
    protocol:
        Collection-protocol switches (quality gating, device order).
    progress_factory:
        Optional ``(total, label) -> ProgressReporter`` hook; when set,
        dataset acquisition and every score-generation scenario report
        progress through reporters it builds.  ``None`` (default) keeps
        the library silent.
    resume:
        When true, pooled score generation first loads any chunk
        checkpoints an interrupted earlier run streamed into the cache,
        and submits only the unfinished chunks.  Requires a cache
        directory; a run that completes normally removes its
        checkpoints, so resuming a finished run is a no-op.
    fail_fast:
        With the default (true), a permanently failed batch aborts the
        run with the original exception.  With ``fail_fast=False`` the
        failed batch is skipped: the affected device-pair shards are
        not cached (they would be incomplete) and the returned score
        sets simply lack those rows, with the skip counted in telemetry
        (``study.jobs.skipped``) and the run manifest.
    retry_policy:
        Retry/backoff/timeout policy for supervised pooled execution;
        ``None`` (default) reads :meth:`RetryPolicy.from_environment`.
    """

    def __init__(
        self,
        config: StudyConfig,
        cache: Optional[ScoreCache] = None,
        protocol: ProtocolSettings = ProtocolSettings(),
        progress_factory: Optional[
            Callable[[Optional[int], str], ProgressReporter]
        ] = None,
        artifacts: Optional[ArtifactStore] = None,
        resume: bool = False,
        fail_fast: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.config = config
        self._cache = cache if cache is not None else ScoreCache(config.cache_dir)
        self._artifacts = (
            artifacts if artifacts is not None else ArtifactStore(config.artifact_dir)
        )
        self._protocol = protocol
        self._progress_factory = progress_factory
        self._resume = resume
        self._fail_fast = fail_fast
        self._retry_policy = retry_policy
        self._tree = SeedTree(config.master_seed)
        self._collection: Optional[Collection] = None
        self._matcher = None
        self._score_sets: Dict[str, ScoreSet] = {}
        self._d4_diagonal: Optional[ScoreSet] = None

    def _progress_for(
        self, total: Optional[int], label: str
    ) -> Optional[ProgressReporter]:
        if self._progress_factory is None:
            return None
        return self._progress_factory(total, label)

    # ------------------------------------------------------------------
    # Lazy components
    # ------------------------------------------------------------------
    @property
    def finger(self) -> str:
        """The finger the headline score sets use (right index)."""
        return "right_index"

    @property
    def artifacts(self) -> ArtifactStore:
        """The artifact store backing collection builds."""
        return self._artifacts

    def collection(self) -> Collection:
        """The acquired dataset, warm-loaded or built on first use."""
        if self._collection is None:
            self._collection = build_collection(
                self.config,
                self._protocol,
                progress=self._progress_for(self.config.n_subjects, "collection"),
                artifacts=self._artifacts,
            )
        return self._collection

    def matcher(self):
        """The matcher engine named by the configuration."""
        if self._matcher is None:
            self._matcher = build_matcher(self.config.matcher_name)
        return self._matcher

    # ------------------------------------------------------------------
    # Score generation
    # ------------------------------------------------------------------
    def _jobs_for(self, scenario: str) -> List[MatchJob]:
        """The deterministic job list of one Table 2 scenario."""
        n = self.config.n_subjects
        if scenario == "DMG":
            return enumerate_dmg_jobs(n)
        if scenario == "DDMG":
            return enumerate_ddmg_jobs(n)
        if scenario == "DMI":
            return sample_dmi_jobs(n, self.config.scaled_dmi_budget(), self._tree)
        if scenario == "DDMI":
            return sample_ddmi_jobs(n, self.config.scaled_ddmi_budget(), self._tree)
        raise ConfigurationError(f"unknown scenario {scenario!r}")

    def score_sets(self) -> Dict[str, ScoreSet]:
        """The four Table 2 score sets (generated or loaded from cache).

        The scenarios share one dispatch (see :meth:`_score_groups`), so
        a pooled run packs one shared-memory block and starts one pool
        for all four; each still runs under its own top-level
        ``scores.<scenario>`` span.
        """
        if not self._score_sets:
            sets = self._score_groups(
                [(scenario, self._jobs_for(scenario)) for scenario in _SCORE_ORDER],
                spans=True,
            )
            self._score_sets = dict(zip(_SCORE_ORDER, sets))
        return self._score_sets

    def cached_score_set(self, scenario: str) -> Optional[ScoreSet]:
        """One scenario's ScoreSet loaded purely from cache, or ``None``.

        Unlike :meth:`score_sets` this never computes anything: every
        device-pair shard of the scenario must already be cached.  The
        backing store of :func:`repro.api.load_scores`.
        """
        jobs = self._jobs_for(scenario)
        shards, missing, pair_indices = self._load_shards(scenario, jobs)
        if missing:
            return None
        return self._assemble_shards(shards, pair_indices, len(jobs))

    def d4_diagonal_genuine(self) -> ScoreSet:
        """Rolled-vs-slap genuine scores within the ten-print card.

        Not part of Table 3's DMG count (the paper counts D4 as a single
        set), but required by the D4xD4 cells of Tables 5 and 6.
        """
        if self._d4_diagonal is None:
            jobs = [
                (s, "D4", GALLERY_SET, s, "D4", probe_set_for("D4"))
                for s in range(self.config.n_subjects)
            ]
            self._d4_diagonal = self._scores_for("DMG-D4", jobs)
        return self._d4_diagonal

    def shard_key(self, scenario: str, gallery_device: str, probe_device: str) -> str:
        """Cache key of one scenario x device-pair score shard.

        Exposed so callers (and tests) can invalidate a single shard:
        ``study._cache.invalidate(study.shard_key("DMG", "D0", "D0"))``
        forces only that device pair to recompute on the next run.
        """
        return (
            f"{self.config.fingerprint()}-{self._protocol.fingerprint()}"
            f"-{scenario}-{gallery_device}x{probe_device}"
        )

    @staticmethod
    def _pair_partition(
        jobs: Sequence[MatchJob],
    ) -> Dict[Tuple[str, str], List[int]]:
        """Job indices per (gallery device, probe device), stable order."""
        pair_indices: Dict[Tuple[str, str], List[int]] = {}
        for k, job in enumerate(jobs):
            pair_indices.setdefault((job[1], job[4]), []).append(k)
        return pair_indices

    def _load_shards(
        self, scenario: str, jobs: Sequence[MatchJob]
    ) -> Tuple[
        Dict[Tuple[str, str], ScoreSet],
        List[Tuple[str, str]],
        Dict[Tuple[str, str], List[int]],
    ]:
        """Load every cached device-pair shard of ``scenario``.

        Returns (loaded shards, pairs still missing, job-index partition).
        A shard whose row count does not match the job partition is
        treated as missing — the cache is never a source of truth.
        """
        base_scenario = scenario.split("-")[0]
        pair_indices = self._pair_partition(jobs)
        shards: Dict[Tuple[str, str], ScoreSet] = {}
        missing: List[Tuple[str, str]] = []
        for pair, indices in pair_indices.items():
            cached = self._load_cached(
                base_scenario, self.shard_key(scenario, pair[0], pair[1])
            )
            if cached is not None and len(cached) == len(indices):
                shards[pair] = cached
            else:
                missing.append(pair)
        return shards, missing, pair_indices

    @staticmethod
    def _assemble_shards(
        shards: Dict[Tuple[str, str], ScoreSet],
        pair_indices: Dict[Tuple[str, str], List[int]],
        n_jobs: int,
    ) -> ScoreSet:
        """Reassemble per-pair shards into the original job order."""
        pairs = list(pair_indices)
        if len(pairs) == 1:
            return shards[pairs[0]]
        combined = ScoreSet.concatenate([shards[pair] for pair in pairs])
        positions = np.concatenate(
            [np.asarray(pair_indices[pair], dtype=np.int64) for pair in pairs]
        )
        # combined row i is job positions[i]; argsort inverts the
        # permutation so row k of the result is job k again.
        return combined.select(np.argsort(positions, kind="stable"))

    def _scores_for(self, scenario: str, jobs: Sequence[MatchJob]) -> ScoreSet:
        """Compute or load one scenario (a one-group :meth:`_score_groups`)."""
        return self._score_groups([(scenario, jobs)])[0]

    def _score_groups(
        self,
        groups: Sequence[Tuple[str, Sequence[MatchJob]]],
        spans: bool = False,
    ) -> List[ScoreSet]:
        """Compute or load ``(scenario, jobs)`` groups, cached per device pair.

        Sharding makes cache re-entry granular: invalidating (or newly
        needing) one (gallery device, probe device) cell recomputes only
        that cell's jobs, not the whole scenario.  Every group resolves
        its cached shards first; the missing jobs of all groups then go
        through one :meth:`_execute` dispatch.  Groups finish in order,
        each as soon as its last chunk arrives.  With ``spans`` each
        group runs under a top-level ``scores.<scenario>`` span that
        opens as the previous one closes, so together they cover the
        whole dispatch.
        """
        recorder = get_recorder()
        resolved = []
        execute: List[ScoreGroup] = []
        owners: List[int] = []
        results: List[ScoreSet] = []
        outcomes: Dict[int, ExecutionOutcome] = {}

        with ExitStack() as span:

            def enter(g: int) -> None:
                span.close()
                if spans and g < len(groups):
                    span.enter_context(recorder.span(f"scores.{groups[g][0]}"))

            def finish_ready() -> None:
                while len(results) < len(groups):
                    g = len(results)
                    if resolved[g][1] and g not in outcomes:
                        return
                    results.append(
                        self._finish_group(*groups[g], *resolved[g], outcomes.get(g))
                    )
                    enter(g + 1)

            def on_outcome(outcome: ExecutionOutcome) -> None:
                outcomes[owners[len(outcomes)]] = outcome
                finish_ready()

            enter(0)
            for g, (scenario, jobs) in enumerate(groups):
                shards, missing, pair_indices = self._load_shards(scenario, jobs)
                resolved.append((shards, missing, pair_indices))
                if shards:
                    recorder.count("study.scores.shards_cached", len(shards))
                if not missing:
                    recorder.count("study.scores.cached")
                    _log.info(
                        "score set loaded from cache",
                        extra={"data": {"scenario": scenario, "jobs": len(jobs)}},
                    )
                    continue
                recorder.count("study.scores.computed")
                recorder.count("study.scores.shards_computed", len(missing))
                missing_jobs = [
                    jobs[k] for pair in missing for k in pair_indices[pair]
                ]
                _log.info(
                    "score set computing",
                    extra={
                        "data": {
                            "scenario": scenario,
                            "jobs": len(missing_jobs),
                            "shards": len(missing),
                            "shards_cached": len(shards),
                        }
                    },
                )
                execute.append((scenario, scenario.split("-")[0], missing_jobs))
                owners.append(g)
            finish_ready()
            if execute:
                self._execute(execute, on_outcome=on_outcome)
        return results

    def _finish_group(
        self,
        scenario: str,
        jobs: Sequence[MatchJob],
        shards: Dict[Tuple[str, str], ScoreSet],
        missing: List[Tuple[str, str]],
        pair_indices: Dict[Tuple[str, str], List[int]],
        outcome: Optional[ExecutionOutcome],
    ) -> ScoreSet:
        """Cache a group's computed shards and assemble its ScoreSet."""
        if outcome is None or outcome.complete:
            cursor = 0
            for pair in missing:
                count = len(pair_indices[pair])
                shard = outcome.score_set.select(np.arange(cursor, cursor + count))
                shards[pair] = shard
                self._store_cached(
                    shard, self.shard_key(scenario, pair[0], pair[1])
                )
                cursor += count
            return self._assemble_shards(shards, pair_indices, len(jobs))
        # Salvage mode (fail_fast=False with skipped batches): return the
        # rows that did complete, but cache none of the affected pair
        # shards — an incomplete shard in the cache would silently
        # shortchange every later run, while recomputing is merely slow.
        get_recorder().count("study.jobs.skipped", outcome.skipped)
        _log.warning(
            "score set incomplete; skipped jobs dropped, shards not cached",
            extra={
                "data": {"scenario": scenario, "skipped": outcome.skipped}
            },
        )
        missing_global = np.asarray(
            [k for pair in missing for k in pair_indices[pair]], dtype=np.int64
        )
        parts = [shards[pair] for pair in shards]
        positions = [
            np.asarray(pair_indices[pair], dtype=np.int64) for pair in shards
        ]
        parts.append(outcome.score_set)
        positions.append(missing_global[outcome.positions])
        return ScoreSet.assemble(parts, positions)

    def custom_scores(
        self,
        label: str,
        jobs: Sequence[MatchJob],
        finger: Optional[str] = None,
    ) -> ScoreSet:
        """Run an arbitrary job list (cached under ``label``).

        Used by the extension experiments: e.g. the multi-finger fusion
        benchmark re-runs the DMG jobs with ``finger="right_middle"``.
        ``label`` must be unique per distinct job list; the first dash-
        separated segment is used as the ScoreSet scenario.
        """
        effective_finger = finger if finger is not None else self.finger
        cache_key = (
            f"{self.config.fingerprint()}-{self._protocol.fingerprint()}"
            f"-{label}-{effective_finger}"
        )
        base_scenario = label.split("-")[0]
        cached = self._load_cached(base_scenario, cache_key)
        if cached is not None:
            return cached
        (outcome,) = self._execute(
            [(label, base_scenario, jobs)], finger=effective_finger
        )
        if outcome.complete:
            self._store_cached(outcome.score_set, cache_key)
        else:
            get_recorder().count("study.jobs.skipped", outcome.skipped)
            _log.warning(
                "custom score set incomplete; result not cached",
                extra={"data": {"label": label, "skipped": outcome.skipped}},
            )
        return outcome.score_set

    def _checkpoint_prefix(self, label: str, finger: str, n_chunks: int) -> str:
        """Cache-key prefix of one pooled group's chunk checkpoints.

        Embeds the config and protocol fingerprints plus the chunk
        partition, so a checkpoint can never be resumed into a run whose
        chunk boundaries (or science) differ.
        """
        return (
            f"{self.config.fingerprint()}-{self._protocol.fingerprint()}"
            f"-ckpt-{label}-{finger}-{n_chunks}"
        )

    def _execute(
        self,
        groups: Sequence[ScoreGroup],
        finger: Optional[str] = None,
        on_outcome: Optional[Callable[[ExecutionOutcome], None]] = None,
    ) -> List[ExecutionOutcome]:
        """Run ``(label, scenario, jobs)`` groups in one dispatch.

        With more than one worker and at least :data:`_MIN_JOBS_FOR_POOL`
        jobs across all groups, the groups share one supervised pool
        (:meth:`_execute_pooled`); otherwise they run in-process on one
        matcher.  Either way ``on_outcome`` fires once per group, in
        group order, as soon as that group is complete.
        """
        collection = self.collection()
        effective_finger = finger if finger is not None else self.finger
        workers = resolve_worker_count(self.config.n_workers)
        total = sum(len(jobs) for _, _, jobs in groups)
        if workers > 1 and total >= _MIN_JOBS_FOR_POOL:
            return self._execute_pooled(
                groups, effective_finger, workers, on_outcome
            )
        outcomes = []
        for label, scenario, jobs in groups:
            progress = self._progress_for(len(jobs), label)
            score_set = run_jobs(
                jobs, collection, self.matcher(), effective_finger, scenario,
                progress=progress,
            )
            if progress is not None:
                progress.finish()
            outcomes.append(ExecutionOutcome(
                score_set, np.arange(len(jobs), dtype=np.int64), len(jobs)
            ))
            if on_outcome is not None:
                on_outcome(outcomes[-1])
        return outcomes

    def _execute_pooled(
        self,
        groups: Sequence[ScoreGroup],
        finger: str,
        workers: int,
        on_outcome: Optional[Callable[[ExecutionOutcome], None]],
    ) -> List[ExecutionOutcome]:
        """Supervised pooled execution with streaming chunk checkpoints.

        Each group keeps the chunk partition, task keys
        (``{label}-chunkNNNN``) and checkpoint prefix it would have on
        its own, but the chunks of every group go through one
        shared-memory block and one pool, so each worker keeps its
        template and frame memos across groups.
        """
        recorder = get_recorder()
        runs = [
            self._chunk_group(label, scenario, jobs, finger, workers)
            for label, scenario, jobs in groups
        ]
        submitted = [
            (run, i) for run in runs for i in range(len(run.chunks))
            if i not in run.parts
        ]
        outcomes: List[ExecutionOutcome] = []

        started = -1

        def finish_ready() -> None:
            # Groups finish in order: on_result delivers chunks in input
            # order, so the first unfinished group is the one receiving.
            nonlocal started
            while len(outcomes) < len(runs):
                g = len(outcomes)
                run = runs[g]
                if started < g:
                    started = g
                    run.progress = self._progress_for(run.total, run.label)
                    if run.progress is not None and run.parts:
                        run.progress.update(
                            sum(len(part) for part in run.parts.values())
                        )
                if len(run.parts) < len(run.chunks):
                    return
                outcomes.append(self._finish_chunks(run))
                if on_outcome is not None:
                    on_outcome(outcomes[-1])
                if run.ckpt_prefix is not None and outcomes[-1].complete:
                    # The shard/label cache entries now supersede the
                    # chunk checkpoints; drop them so a later resume never
                    # reads stale chunks from a superseded partition.
                    for i in range(len(run.chunks)):
                        self._cache.invalidate(run.ckpt_key(i))

        emitted = 0

        def _collect(result) -> None:
            # on_result fires once per submitted batch, in input order
            # (None marks a skip), so ``emitted`` tracks chunk identity.
            nonlocal emitted
            run, i = submitted[emitted]
            emitted += 1
            if result is not None:
                if recorder.active:
                    # Each chunk carries its worker-local metrics; merging
                    # here keeps counters exact without shared state.
                    result, snapshot = result
                    recorder.merge_metrics(snapshot)
                if run.ckpt_prefix is not None:
                    # Stream the finished chunk to disk: an interrupted run
                    # restarted with resume=True recomputes only the rest.
                    self._store_cached(result, run.ckpt_key(i))
                    recorder.count("study.checkpoint.stored")
                if run.progress is not None:
                    run.progress.update(len(result))
            run.parts[i] = result
            finish_ready()

        finish_ready()
        if submitted:
            store: Optional[SharedTemplateStore] = None
            try:
                try:
                    # Workers map the template block instead of unpickling
                    # a full Collection copy each.
                    store = SharedTemplateStore.pack(self.collection())
                    source: Union[Collection, StoreHandle] = store.handle()
                except OSError:  # pragma: no cover - no shm on this platform
                    source = self.collection()
                parallel_map_batched(
                    _run_job_chunk_with_metrics
                    if recorder.active
                    else _run_job_chunk,
                    [run.chunks[i] for run, i in submitted],
                    n_workers=workers,
                    initializer=_init_score_worker,
                    initargs=(source, self.config.matcher_name),
                    on_result=_collect,
                    policy=self._retry_policy,
                    task_keys=[f"{run.label}-chunk{i:04d}" for run, i in submitted],
                    fail_fast=self._fail_fast,
                )
            finally:
                if store is not None:
                    store.destroy()
        return outcomes

    def _chunk_group(
        self,
        label: str,
        scenario: str,
        jobs: Sequence[MatchJob],
        finger: str,
        workers: int,
    ) -> _ChunkedGroup:
        """Partition one group into chunks; with ``resume``, prefill the
        chunks an interrupted earlier run checkpointed."""
        chunk = max(64, len(jobs) // (workers * 4))
        run = _ChunkedGroup(label, scenario, len(jobs), [
            (list(jobs[start : start + chunk]), finger, scenario)
            for start in range(0, len(jobs), chunk)
        ])
        if self._cache.enabled and len(run.chunks) > 1:
            run.ckpt_prefix = self._checkpoint_prefix(
                label, finger, len(run.chunks)
            )
        if run.ckpt_prefix is None or not self._resume:
            return run
        for i, (chunk_jobs, _, _) in enumerate(run.chunks):
            cached = self._load_cached(scenario, run.ckpt_key(i))
            if cached is not None and len(cached) == len(chunk_jobs):
                run.parts[i] = cached
        if run.parts:
            get_recorder().count("study.checkpoint.resumed", len(run.parts))
            _log.info(
                "resumed from chunk checkpoints",
                extra={
                    "data": {
                        "label": label,
                        "resumed": len(run.parts),
                        "chunks": len(run.chunks),
                    }
                },
            )
        return run

    def _finish_chunks(self, run: _ChunkedGroup) -> ExecutionOutcome:
        """Assemble a pooled group's delivered chunks, in job order."""
        if run.progress is not None:
            run.progress.finish()
        parts: List[ScoreSet] = []
        positions: List[np.ndarray] = []
        start = 0
        for i, (chunk_jobs, _, _) in enumerate(run.chunks):
            part = run.parts[i]
            if part is not None:  # None: skipped under fail_fast=False
                parts.append(part)
                positions.append(
                    np.arange(start, start + len(part), dtype=np.int64)
                )
            start += len(chunk_jobs)
        if parts:
            score_set = ScoreSet.concatenate(parts)
            done = np.concatenate(positions)
        else:
            score_set = _empty_score_set(run.scenario, self.config.matcher_name)
            done = np.empty(0, dtype=np.int64)
        return ExecutionOutcome(score_set, done, run.total)

    def _load_cached(self, scenario: str, key: str) -> Optional[ScoreSet]:
        arrays = self._cache.load(key)
        if arrays is None:
            return None
        return ScoreSet(
            scenario=scenario,
            matcher_name=self.config.matcher_name,
            scores=arrays["scores"],
            subject_gallery=arrays["subject_gallery"],
            subject_probe=arrays["subject_probe"],
            device_gallery=arrays["device_gallery"].astype("<U2"),
            device_probe=arrays["device_probe"].astype("<U2"),
            nfiq_gallery=arrays["nfiq_gallery"],
            nfiq_probe=arrays["nfiq_probe"],
        )

    def _store_cached(self, score_set: ScoreSet, key: str) -> None:
        self._cache.store(
            key,
            {
                "scores": score_set.scores,
                "subject_gallery": score_set.subject_gallery,
                "subject_probe": score_set.subject_probe,
                "device_gallery": score_set.device_gallery.astype("<U2"),
                "device_probe": score_set.device_probe.astype("<U2"),
                "nfiq_gallery": score_set.nfiq_gallery,
                "nfiq_probe": score_set.nfiq_probe,
            },
            meta={"config": self.config.describe()},
        )

    # ------------------------------------------------------------------
    # Scenario slicing
    # ------------------------------------------------------------------
    @staticmethod
    def _check_devices(*device_ids: str) -> None:
        from ..sensors.registry import DEVICE_ORDER

        for device_id in device_ids:
            if device_id not in DEVICE_ORDER:
                from ..runtime.errors import ConfigurationError

                raise ConfigurationError(
                    f"unknown device {device_id!r}; expected one of {DEVICE_ORDER}"
                )

    def genuine_scores(self, gallery_device: str, probe_device: str) -> ScoreSet:
        """Genuine scores for one (gallery, probe) device cell."""
        self._check_devices(gallery_device, probe_device)
        if gallery_device == probe_device:
            if gallery_device == "D4":
                return self.d4_diagonal_genuine()
            return self.score_sets()["DMG"].for_pair(gallery_device, probe_device)
        return self.score_sets()["DDMG"].for_pair(gallery_device, probe_device)

    def impostor_scores(self, gallery_device: str, probe_device: str) -> ScoreSet:
        """Impostor scores for one (gallery, probe) device cell."""
        self._check_devices(gallery_device, probe_device)
        if gallery_device == probe_device:
            return self.score_sets()["DMI"].for_pair(gallery_device, probe_device)
        return self.score_sets()["DDMI"].for_pair(gallery_device, probe_device)

    def genuine_vector(self, gallery_device: str, probe_device: str) -> np.ndarray:
        """Per-subject genuine score vector, subject-ordered.

        The unit of Table 4's Kendall tests: element *s* is subject *s*'s
        genuine score in the (gallery, probe) scenario.
        """
        cell = self.genuine_scores(gallery_device, probe_device)
        order = np.argsort(cell.subject_gallery)
        subjects = cell.subject_gallery[order]
        if not np.array_equal(subjects, np.arange(self.config.n_subjects)):
            raise RuntimeError(
                f"genuine cell ({gallery_device}, {probe_device}) does not "
                "contain exactly one score per subject"
            )
        return cell.scores[order]

    # ------------------------------------------------------------------
    # Analyses (one per paper artifact; implementations live in the
    # dedicated analysis modules)
    # ------------------------------------------------------------------
    def kendall_matrix(self) -> Dict[Tuple[str, str], KendallResult]:
        """Table 4: Kendall tests of (DX, DX) vs (DX, DY) genuine vectors."""
        from .kendall_analysis import kendall_matrix

        return kendall_matrix(self)

    def fnmr_matrix(
        self, target_fmr: float = 1e-4, max_nfiq: Optional[int] = None
    ) -> np.ndarray:
        """Tables 5/6: FNMR at fixed FMR for every (gallery, probe) cell."""
        from .error_rates import fnmr_interoperability_matrix

        return fnmr_interoperability_matrix(self, target_fmr, max_nfiq)

    def low_score_quality_surface(self, cross_device: bool, score_below: float = 10.0):
        """Figure 5 panel: low-genuine-score frequency by quality pair."""
        from .quality_analysis import low_score_quality_surface

        return low_score_quality_surface(self, cross_device, score_below)

    def demographics(self) -> Dict[str, Dict[str, int]]:
        """Figure 1: age and ethnicity histograms of the population."""
        from ..synthesis.population import Population

        return Population(self.config).demographics_table()


__all__ = ["InteroperabilityStudy"]
