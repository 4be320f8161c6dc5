"""Closed- and open-set identification (1:N search).

The paper frames its data in identification vocabulary — the gallery is
"the database of fingerprint images in which we search" — and its
US-VISIT motivation is an identification system.  This module provides
the 1:N machinery over any gallery of templates:

* :func:`rank_candidates` — score a probe against the whole gallery;
* :class:`TwoStageIdentifier` — descriptor prefilter + exact rescoring,
  the sub-linear search path for million-identity galleries (the
  exhaustive :func:`rank_candidates` remains its recall oracle);
* :class:`CmcCurve` — cumulative match characteristic: P(true identity
  within rank k), the standard closed-set identification measure;
* :func:`open_set_rates` — FPIR/FNIR at a score threshold for open-set
  identification (probes may be unenrolled).

The cross-device identification experiment (gallery enrolled on one
device, probes from another) shows interoperability costs *rank-1
accuracy*, not just verification FNMR.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..matcher.types import Template
from ..runtime.errors import ConfigurationError
from .prefilter import PrefilterIndex, descriptor_vector

#: Default prefilter survivor count for two-stage identification.  At
#: paper-scale galleries the true mate essentially always lands in the
#: first few descriptor neighbours; 32 leaves a wide recall margin while
#: keeping the exact stage constant-time in the gallery size.
DEFAULT_CANDIDATE_K = 32

#: The valid values of the ``REPRO_IDENTIFY_MODE`` knob.
IDENTIFY_MODES = ("exact", "two_stage")


@dataclass(frozen=True)
class Candidate:
    """One gallery candidate in a ranked identification result.

    ``prefilter_rank`` is the candidate's 1-based position in the coarse
    descriptor stage when the two-stage path produced it; ``None`` for
    exhaustive search, where no prefilter ran.
    """

    identity: str
    score: float
    prefilter_rank: Optional[int] = None


def rank_candidates(
    matcher,
    probe: Template,
    gallery: Dict[str, Template],
    max_candidates: Optional[int] = None,
) -> List[Candidate]:
    """Score ``probe`` against every gallery template, best first.

    All candidates go through one ``matcher.score_pairs`` call, whose
    scores are bit-identical to a scalar ``match`` loop
    (:func:`rank_candidates_scalar` is the parity oracle).  Ties are
    broken by identity, ascending, so all-tied scores still yield a
    deterministic order; an empty gallery returns an empty candidate
    list.
    """
    identities = list(gallery)
    scores = matcher.score_pairs(
        [(probe, gallery[identity]) for identity in identities]
    )
    scored = [
        Candidate(identity=identity, score=float(score))
        for identity, score in zip(identities, scores)
    ]
    scored.sort(key=lambda c: (-c.score, c.identity))
    return scored[:max_candidates] if max_candidates else scored


def rank_candidates_scalar(
    matcher,
    probe: Template,
    gallery: Dict[str, Template],
    max_candidates: Optional[int] = None,
) -> List[Candidate]:
    """Reference 1:N ranking via one scalar ``match`` call per candidate.

    The parity oracle for :func:`rank_candidates`, which must
    reproduce this ordering (and these scores) exactly.  Kept as a public
    function so the parity tests — and any matcher author validating a
    new ``score_pairs`` — can compare against it directly.
    """
    if not gallery:
        return []
    scored = [
        Candidate(identity=identity, score=matcher.match(probe, template))
        for identity, template in gallery.items()
    ]
    scored.sort(key=lambda c: (-c.score, c.identity))
    return scored[:max_candidates] if max_candidates else scored


@dataclass(frozen=True)
class SearchReport:
    """Provenance of one identification search (the ``search`` block).

    Attributes
    ----------
    mode:
        ``"exact"`` (exhaustive) or ``"two_stage"`` (prefiltered).
    gallery_size:
        Enrolled candidates the search logically covered.
    candidates_scored:
        How many of them the exact matcher actually scored — equals
        ``gallery_size`` for exact mode, at most ``candidate_k`` for
        two-stage.
    candidate_k:
        The prefilter survivor budget (``None`` in exact mode).
    prefilter_seconds:
        Wall time of the coarse stage (0.0 in exact mode).
    """

    mode: str
    gallery_size: int
    candidates_scored: int
    candidate_k: Optional[int] = None
    prefilter_seconds: float = 0.0

    def to_dict(self) -> dict:
        """The JSON-ready ``search`` block of an ``/identify`` response."""
        return {
            "mode": self.mode,
            "gallery_size": self.gallery_size,
            "candidates_scored": self.candidates_scored,
            "candidate_k": self.candidate_k,
            "prefilter_seconds": round(self.prefilter_seconds, 6),
        }


class TwoStageIdentifier:
    """Two-stage 1:N search over a fixed gallery dictionary.

    Builds a :class:`~repro.core.prefilter.PrefilterIndex` over the
    gallery once; each :meth:`identify` then runs a vectorized
    descriptor top-K pass and hands only the K survivors to the exact
    matcher.  Against the same gallery, the exact stage's scores are
    bit-identical to :func:`rank_candidates` — the two paths call the
    same matcher entry point on the same templates — so two-stage top-1
    differs from exhaustive top-1 only when the prefilter drops the true
    best candidate (the recall the benchmark measures).

    The online serving layer keeps its own incrementally-maintained
    per-device indexes (:class:`repro.service.gallery.GalleryIndex`);
    this class is the batch/benchmark harness over a plain dict.
    """

    def __init__(
        self,
        matcher,
        gallery: Dict[str, Template],
        candidate_k: int = DEFAULT_CANDIDATE_K,
    ) -> None:
        if candidate_k < 1:
            raise ConfigurationError(
                f"candidate_k must be >= 1, got {candidate_k}"
            )
        self._matcher = matcher
        self._gallery = dict(gallery)
        self._candidate_k = candidate_k
        self._index = PrefilterIndex.from_items(
            {key: descriptor_vector(t) for key, t in self._gallery.items()}
        )

    @property
    def candidate_k(self) -> int:
        return self._candidate_k

    def __len__(self) -> int:
        return len(self._gallery)

    def identify(
        self,
        probe: Template,
        max_candidates: Optional[int] = None,
        candidate_k: Optional[int] = None,
    ) -> Tuple[List[Candidate], SearchReport]:
        """Ranked candidates plus the search's provenance report."""
        k = candidate_k if candidate_k is not None else self._candidate_k
        if k < 1:
            raise ConfigurationError(f"candidate_k must be >= 1, got {k}")
        started = time.perf_counter()
        survivors = self._index.top_k(descriptor_vector(probe), k)
        prefilter_seconds = time.perf_counter() - started
        ranks = {c.key: c.rank for c in survivors}
        shortlist = {c.key: self._gallery[c.key] for c in survivors}
        scored = rank_candidates(self._matcher, probe, shortlist)
        candidates = [
            Candidate(
                identity=c.identity,
                score=c.score,
                prefilter_rank=ranks[c.identity],
            )
            for c in scored
        ]
        if max_candidates:
            candidates = candidates[:max_candidates]
        report = SearchReport(
            mode="two_stage",
            gallery_size=len(self._gallery),
            candidates_scored=len(shortlist),
            candidate_k=k,
            prefilter_seconds=prefilter_seconds,
        )
        return candidates, report


def identification_rank(candidates: Sequence[Candidate], true_identity: str) -> int:
    """1-based rank of the true identity (0 if absent from the list)."""
    for rank, candidate in enumerate(candidates, start=1):
        if candidate.identity == true_identity:
            return rank
    return 0


@dataclass(frozen=True)
class CmcCurve:
    """Cumulative match characteristic.

    Attributes
    ----------
    hit_rates:
        ``hit_rates[k-1]`` = fraction of probes whose true identity
        appeared within rank k.
    n_probes:
        Number of identification attempts behind the curve.
    """

    hit_rates: np.ndarray
    n_probes: int

    @property
    def rank1(self) -> float:
        """Rank-1 identification rate (the headline number)."""
        return float(self.hit_rates[0]) if len(self.hit_rates) else 0.0

    def rate_at(self, rank: int) -> float:
        """Hit rate at the given 1-based rank (saturates at the tail).

        A curve with no ranks (zero probes) reports 0.0 everywhere
        rather than indexing into an empty array.
        """
        if rank < 1:
            raise ConfigurationError("rank must be >= 1")
        if not len(self.hit_rates):
            return 0.0
        index = min(rank, len(self.hit_rates)) - 1
        return float(self.hit_rates[index])

    def render(self, max_rank: int = 10, width: int = 40) -> str:
        """ASCII CMC curve."""
        lines = [f"CMC over {self.n_probes} probes"]
        for rank in range(1, min(max_rank, len(self.hit_rates)) + 1):
            rate = self.rate_at(rank)
            bar = "#" * int(round(rate * width))
            lines.append(f"  rank {rank:>3}: {rate:6.3f} |{bar}")
        return "\n".join(lines)


def cmc_curve(ranks: Sequence[int], max_rank: int) -> CmcCurve:
    """Build a CMC from per-probe true-identity ranks (0 = missed).

    Zero probes produce an all-zero curve over ``max_rank`` ranks (the
    online service can be asked for a CMC before any identification has
    run) instead of tripping numpy's empty-mean warning; probes whose
    identity was absent from the gallery arrive as rank 0 and simply
    never hit.
    """
    if max_rank < 1:
        raise ConfigurationError("max_rank must be >= 1")
    rank_array = np.asarray(ranks, dtype=np.int64)
    if rank_array.size == 0:
        return CmcCurve(
            hit_rates=np.zeros(max_rank, dtype=np.float64), n_probes=0
        )
    hits = np.zeros(max_rank, dtype=np.float64)
    for k in range(1, max_rank + 1):
        hits[k - 1] = np.mean((rank_array >= 1) & (rank_array <= k))
    return CmcCurve(hit_rates=hits, n_probes=int(rank_array.size))


def run_identification(
    matcher,
    probes: Sequence[Tuple[str, Template]],
    gallery: Dict[str, Template],
    max_rank: int = 10,
) -> CmcCurve:
    """Identify every (true_identity, template) probe against the gallery."""
    ranks = []
    for true_identity, probe in probes:
        candidates = rank_candidates(matcher, probe, gallery)
        ranks.append(identification_rank(candidates, true_identity))
    return cmc_curve(ranks, max_rank=max_rank)


def open_set_rates(
    matcher,
    enrolled_probes: Sequence[Tuple[str, Template]],
    unenrolled_probes: Sequence[Template],
    gallery: Dict[str, Template],
    threshold: float,
) -> Tuple[float, float]:
    """Open-set identification error rates at ``threshold``.

    Returns
    -------
    (fnir, fpir):
        * FNIR — false-negative identification rate: enrolled probes
          whose true identity was not returned at rank 1 above the
          threshold;
        * FPIR — false-positive identification rate: unenrolled probes
          whose best candidate cleared the threshold.

    Edge cases are well-defined rather than warning-dependent: an empty
    gallery can never identify anyone, so every "enrolled" probe is a
    miss (FNIR 1.0) and no unenrolled probe can raise a false alarm
    (FPIR 0.0); a probe whose identity is absent from the gallery counts
    as a miss whatever it scores.
    """
    if not enrolled_probes and not unenrolled_probes:
        raise ConfigurationError("open_set_rates needs at least one probe")
    if not gallery:
        return (1.0 if enrolled_probes else 0.0), 0.0
    misses = 0
    for true_identity, probe in enrolled_probes:
        best = rank_candidates(matcher, probe, gallery, max_candidates=1)[0]
        if best.identity != true_identity or best.score < threshold:
            misses += 1
    false_alarms = 0
    for probe in unenrolled_probes:
        best = rank_candidates(matcher, probe, gallery, max_candidates=1)[0]
        if best.score >= threshold:
            false_alarms += 1
    fnir = misses / len(enrolled_probes) if enrolled_probes else 0.0
    fpir = false_alarms / len(unenrolled_probes) if unenrolled_probes else 0.0
    return fnir, fpir


def cross_device_cmc(
    study,
    gallery_device: str,
    probe_device: str,
    max_rank: int = 10,
    n_subjects: Optional[int] = None,
) -> CmcCurve:
    """CMC for identification across a device pair, on a study population.

    Gallery: every subject's set-0 impression on ``gallery_device``;
    probes: set-1 impressions on ``probe_device``.
    """
    collection = study.collection()
    matcher = study.matcher()
    n = n_subjects if n_subjects is not None else study.config.n_subjects
    gallery = {
        f"subject-{sid}": collection.get(sid, study.finger, gallery_device, 0).template
        for sid in range(n)
    }
    probes = [
        (f"subject-{sid}", collection.get(sid, study.finger, probe_device, 1).template)
        for sid in range(n)
    ]
    return run_identification(matcher, probes, gallery, max_rank=max_rank)


__all__ = [
    "Candidate",
    "DEFAULT_CANDIDATE_K",
    "IDENTIFY_MODES",
    "SearchReport",
    "TwoStageIdentifier",
    "rank_candidates",
    "rank_candidates_scalar",
    "identification_rank",
    "CmcCurve",
    "cmc_curve",
    "run_identification",
    "open_set_rates",
    "cross_device_cmc",
]
