"""Matcher facade — the reproduction's "SDK".

:class:`BioEngineMatcher` chains the pipeline stages (descriptors →
consensus alignment → tolerance-box pairing → calibrated score) behind
the interface a commercial SDK exposes: ``match`` for a bare score,
``match_detailed`` for diagnostics, and ``score_pairs`` for a batch of
(probe, gallery) pairs.

Per-template work (mm-space positions, directions, qualities and the
neighbourhood descriptors) is memoized as a :class:`TemplateFrame`,
keyed by a *content fingerprint* — template length plus a hash of the
minutiae — because the study matches every gallery template against
hundreds of probes and ``id()``-based keys can alias after garbage
collection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..runtime.errors import MatcherError
from ..runtime.telemetry import get_recorder
from .alignment import RigidTransform, candidate_pairs, estimate_alignments
from .descriptors import DescriptorSet, build_descriptors, similarity_matrix
from .pairing import PairingResult, pair_minutiae
from .scoring import (
    MIN_TEMPLATE_MINUTIAE,
    ScoreBreakdown,
    compute_score,
)
from .types import Template


@dataclass(frozen=True)
class MatchResult:
    """Full diagnostics of one comparison."""

    score: float
    breakdown: ScoreBreakdown
    transform: Optional[RigidTransform]
    pairing: Optional[PairingResult]


@dataclass(frozen=True)
class TemplateFrame:
    """Everything the match kernel needs from one template, precomputed.

    Built once per distinct template and reused across every comparison
    that template participates in — the gallery side of a batch pays for
    its arrays and descriptors exactly once.
    """

    positions: np.ndarray
    angles: np.ndarray
    qualities: np.ndarray
    descriptors: DescriptorSet


def template_fingerprint(template: Template) -> Tuple[int, int, int]:
    """Content key for memoizing per-template work.

    ``id()`` keys alias when the allocator recycles addresses after GC;
    this key survives that: template length, capture resolution, and the
    hash of the (frozen, hashable) minutiae tuple.
    """
    return template.content_key()


def _empty_result() -> MatchResult:
    empty = ScoreBreakdown(
        score=0.0, match_ratio=0.0, consistency=0.0, quality_weight=0.0,
        n_matched=0, n_overlap_a=0, n_overlap_b=0,
    )
    return MatchResult(score=0.0, breakdown=empty, transform=None, pairing=None)


class BioEngineMatcher:
    """Minutiae matcher calibrated to the paper's score landmarks.

    Thread-compatibility note: the frame memo is a plain dict; use one
    matcher instance per process (the parallel harness does).
    """

    #: Name used by :class:`~repro.runtime.config.StudyConfig`.
    name = "bioengine"

    def __init__(self, max_cache_entries: int = 4096) -> None:
        self._frame_cache: Dict[Tuple[int, int, int], TemplateFrame] = {}
        self._max_cache_entries = max_cache_entries

    def _frame(self, template: Template) -> TemplateFrame:
        key = template_fingerprint(template)
        cached = self._frame_cache.get(key)
        if cached is not None:
            return cached
        frame = TemplateFrame(
            positions=template.positions_mm(),
            angles=template.angles(),
            qualities=template.qualities(),
            descriptors=build_descriptors(template),
        )
        if len(self._frame_cache) >= self._max_cache_entries:
            self._frame_cache.clear()
        self._frame_cache[key] = frame
        return frame

    def _descriptors(self, template: Template) -> DescriptorSet:
        """Descriptor set of ``template`` (memoized via the frame cache)."""
        return self._frame(template).descriptors

    def match(self, probe: Template, gallery: Template) -> float:
        """Similarity score; higher means more likely the same finger."""
        return self.match_detailed(probe, gallery).score

    def score_pairs(self, pairs: Sequence[Tuple[Template, Template]]) -> np.ndarray:
        """Scores of (probe, gallery) pairs, in input order.

        The matcher's one batch entry point: study score generation,
        1:N ranking and the serving layer's micro-batches all come
        through here.  Each distinct pair runs the scalar path
        (:meth:`match_detailed` without its per-call telemetry) on the
        memoized frames, so scores are bit-identical to a :meth:`match`
        loop, which stays the parity oracle.

        Duplicate comparisons are collapsed first: the kernel is a pure
        function of the two templates' contents, so a batch that contains
        the same (probe, gallery) pair several times — the normal case
        when concurrent verification requests coalesce — pays for it
        once and fans the score out.

        With telemetry on, one call counts its distinct pairs into
        ``matcher.invocations`` and its duplicates into
        ``matcher.collapsed``, and observes its pair count and wall time
        as ``matcher.batch_size`` and ``matcher.batch_seconds``.
        """
        n = len(pairs)
        scores = np.empty(n, dtype=np.float64)
        if n == 0:
            return scores
        recorder = get_recorder()
        start = time.perf_counter() if recorder.active else 0.0
        distinct: Dict[Tuple, list] = {}
        for index, (probe, gallery) in enumerate(pairs):
            if probe is None or gallery is None:
                raise MatcherError("score_pairs requires probe and gallery templates")
            key = (probe.content_key(), gallery.content_key())
            distinct.setdefault(key, []).append(index)
        for indices in distinct.values():
            probe, gallery = pairs[indices[0]]
            scores[indices] = self._match_detailed(probe, gallery).score
        if recorder.active:
            recorder.count("matcher.invocations", len(distinct))
            if len(distinct) < n:
                recorder.count("matcher.collapsed", n - len(distinct))
            recorder.observe("matcher.batch_size", float(n))
            recorder.observe(
                "matcher.batch_seconds", time.perf_counter() - start
            )
        return scores

    def match_detailed(self, probe: Template, gallery: Template) -> MatchResult:
        """Score plus alignment/pairing diagnostics.

        When telemetry is enabled, every invocation bumps the
        ``matcher.invocations`` counter and feeds the per-comparison
        latency into the ``matcher.match_seconds`` histogram; with the
        default :class:`~repro.runtime.telemetry.NullRecorder` the
        overhead is a single attribute check.
        """
        recorder = get_recorder()
        if not recorder.active:
            return self._match_detailed(probe, gallery)
        start = time.perf_counter()
        result = self._match_detailed(probe, gallery)
        recorder.count("matcher.invocations")
        recorder.observe("matcher.match_seconds", time.perf_counter() - start)
        return result

    def _match_detailed(self, probe: Template, gallery: Template) -> MatchResult:
        if probe is None or gallery is None:
            raise MatcherError("match requires two templates")
        if len(probe) < MIN_TEMPLATE_MINUTIAE or len(gallery) < MIN_TEMPLATE_MINUTIAE:
            # Degenerate capture: a real SDK reports failure-to-match with
            # a floor score rather than raising.
            return _empty_result()
        return self._match_frames(self._frame(probe), self._frame(gallery))

    def _match_frames(
        self, frame_p: TemplateFrame, frame_g: TemplateFrame
    ) -> MatchResult:
        """The match kernel behind every score."""
        similarity = similarity_matrix(frame_p.descriptors, frame_g.descriptors)
        candidates = candidate_pairs(similarity)

        transforms = estimate_alignments(
            frame_p.positions, frame_p.angles,
            frame_g.positions, frame_g.angles, candidates,
        )
        if not transforms:
            return _empty_result()

        best: Optional[MatchResult] = None
        for transform in transforms:
            pairing = pair_minutiae(
                frame_p.positions, frame_p.angles,
                frame_g.positions, frame_g.angles, transform,
            )
            breakdown = compute_score(pairing, frame_p.qualities, frame_g.qualities)
            result = MatchResult(
                score=breakdown.score,
                breakdown=breakdown,
                transform=transform,
                pairing=pairing,
            )
            if best is None or result.score > best.score:
                best = result
        return best


__all__ = [
    "BioEngineMatcher",
    "MatchResult",
    "TemplateFrame",
    "template_fingerprint",
]
