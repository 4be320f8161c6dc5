"""Global rigid alignment by Hough-style consensus.

Placement on the platen differs between any two impressions; the matcher
must first find the rigid transform that best registers the probe onto
the gallery.  Following the classical Ratha/Karu scheme:

1. candidate correspondences are the highest-similarity descriptor
   pairs;
2. each candidate (a_i, b_j) votes for a transform hypothesis
   ``(d_theta, tx, ty)`` — rotate by the direction difference, translate
   so a_i lands on b_j;
3. votes accumulate in a coarse discretized accumulator; the winning
   cell (plus its neighbourhood) selects the consensus candidates;
4. the final transform is the least-squares rigid fit (2-D Kabsch /
   Procrustes) over the consensus set.

Nonrigid residue — elastic skin distortion and, crucially, *cross-device
signature differences* — survives this stage by construction; that
residue is what depresses cross-device genuine scores in the study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .descriptors import wrap_angle

#: Accumulator resolution.
ANGLE_BIN_RAD = np.deg2rad(15.0)
TRANSLATION_BIN_MM = 3.0

#: Number of top descriptor pairs considered as candidates.
MAX_CANDIDATES = 48


@dataclass(frozen=True)
class RigidTransform:
    """A 2-D rotation-plus-translation map ``p -> R(theta) p + t``."""

    theta: float
    tx: float
    ty: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an (n, 2) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        c, s = np.cos(self.theta), np.sin(self.theta)
        rot = np.array([[c, -s], [s, c]])
        return pts @ rot.T + np.array([self.tx, self.ty])

    def apply_angles(self, angles: np.ndarray) -> np.ndarray:
        """Rotate direction values by ``theta``."""
        return np.mod(np.asarray(angles, dtype=np.float64) + self.theta, 2 * np.pi)

    @staticmethod
    def identity() -> "RigidTransform":
        """The do-nothing transform."""
        return RigidTransform(0.0, 0.0, 0.0)


def candidate_pairs(
    similarity: np.ndarray, min_similarity: float = 0.45
) -> np.ndarray:
    """Select candidate correspondences from a descriptor similarity matrix.

    Returns an ``(m, 3)`` array of ``(i, j, similarity)`` rows, best
    first, capped at :data:`MAX_CANDIDATES`.
    """
    if similarity.size == 0:
        return np.zeros((0, 3))
    flat_similarity = similarity.ravel()
    flat = np.flatnonzero(flat_similarity >= min_similarity)
    if flat.size == 0:
        # Fall back to the global best few, even if weak: impostor scores
        # also need an alignment attempt, like a real matcher makes.
        flat = np.argsort(similarity, axis=None)[::-1][: min(8, similarity.size)]
    sims = flat_similarity[flat]
    chosen = flat[np.argsort(sims)[::-1][:MAX_CANDIDATES]]
    out = np.empty((chosen.size, 3), dtype=np.float64)
    out[:, 0], out[:, 1] = np.divmod(chosen, similarity.shape[1])
    out[:, 2] = flat_similarity[chosen]
    return out


def estimate_alignments(
    positions_a: np.ndarray,
    angles_a: np.ndarray,
    positions_b: np.ndarray,
    angles_b: np.ndarray,
    candidates: np.ndarray,
    max_hypotheses: int = 2,
) -> List[RigidTransform]:
    """Consensus rigid transforms mapping template A onto template B.

    Returns up to ``max_hypotheses`` transforms, strongest accumulator
    cell first.  Real matchers verify more than one alignment hypothesis
    because the strongest Hough cell occasionally belongs to a spurious
    self-similarity of the ridge pattern; the caller scores each
    hypothesis and keeps the best.  An empty list means no candidate
    pairs exist (e.g. an empty template) — such comparisons score zero.
    """
    if candidates.shape[0] == 0:
        return []

    idx_a = candidates[:, 0].astype(np.int64)
    idx_b = candidates[:, 1].astype(np.int64)
    weights = candidates[:, 2]

    d_theta = wrap_angle(angles_b[idx_b] - angles_a[idx_a])
    cos_t, sin_t = np.cos(d_theta), np.sin(d_theta)
    pa = positions_a[idx_a]
    pb = positions_b[idx_b]
    rotated_ax = cos_t * pa[:, 0] - sin_t * pa[:, 1]
    rotated_ay = sin_t * pa[:, 0] + cos_t * pa[:, 1]
    tx = pb[:, 0] - rotated_ax
    ty = pb[:, 1] - rotated_ay

    # Coarse accumulator votes.
    theta_bins = np.round(d_theta / ANGLE_BIN_RAD).astype(np.int64)
    tx_bins = np.round(tx / TRANSLATION_BIN_MM).astype(np.int64)
    ty_bins = np.round(ty / TRANSLATION_BIN_MM).astype(np.int64)

    votes: dict = {}
    cells = list(zip(theta_bins.tolist(), tx_bins.tolist(), ty_bins.tolist()))
    for cell, weight in zip(cells, weights.tolist()):
        votes[cell] = votes.get(cell, 0.0) + weight
    ranked_cells = sorted(votes, key=votes.get, reverse=True)

    transforms: List[RigidTransform] = []
    for ct, cx, cy in ranked_cells[:max_hypotheses]:
        # Never empty: the winning cells hold at least their own votes.
        in_consensus = [
            k for k, (t, x, y) in enumerate(cells)
            if ct - 1 <= t <= ct + 1 and cx - 1 <= x <= cx + 1
            and cy - 1 <= y <= cy + 1
        ]
        transforms.append(
            _weighted_rigid_fit(
                pa[in_consensus], pb[in_consensus], weights[in_consensus],
                fallback_theta=lambda sel=in_consensus: float(np.median(d_theta[sel])),
            )
        )
    if not transforms:
        transforms.append(
            _weighted_rigid_fit(
                pa, pb, weights,
                fallback_theta=lambda: float(np.median(d_theta)),
            )
        )
    return transforms


def estimate_alignment(
    positions_a: np.ndarray,
    angles_a: np.ndarray,
    positions_b: np.ndarray,
    angles_b: np.ndarray,
    candidates: np.ndarray,
) -> Optional[RigidTransform]:
    """Single best-cell transform (compatibility wrapper over the list API)."""
    transforms = estimate_alignments(
        positions_a, angles_a, positions_b, angles_b, candidates, max_hypotheses=1
    )
    return transforms[0] if transforms else None


def _weighted_rigid_fit(
    pa: np.ndarray, pb: np.ndarray, weights: np.ndarray, fallback_theta
) -> RigidTransform:
    """Weighted 2-D Procrustes: least-squares rotation + translation.

    ``fallback_theta`` is a zero-argument callable evaluated only in the
    degenerate case (all consensus points coincident), so the common path
    never pays for the median it would use.
    """
    w = weights / max(weights.sum(), 1e-12)
    ca = (w[:, None] * pa).sum(axis=0)
    cb = (w[:, None] * pb).sum(axis=0)
    qa = pa - ca
    qb = pb - cb
    # Cross-covariance terms for the optimal 2-D rotation.
    wqa_x = w * qa[:, 0]
    wqa_y = w * qa[:, 1]
    sxx = float((wqa_x * qb[:, 0]).sum())
    syy = float((wqa_y * qb[:, 1]).sum())
    sxy = float((wqa_x * qb[:, 1]).sum())
    syx = float((wqa_y * qb[:, 0]).sum())
    denom = sxx + syy
    numer = sxy - syx
    if abs(denom) < 1e-12 and abs(numer) < 1e-12:
        theta = fallback_theta()
    else:
        theta = float(np.arctan2(numer, denom))
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    translation = cb - rot @ ca
    return RigidTransform(theta=theta, tx=float(translation[0]), ty=float(translation[1]))


__all__ = [
    "RigidTransform",
    "candidate_pairs",
    "estimate_alignment",
    "estimate_alignments",
    "ANGLE_BIN_RAD",
    "TRANSLATION_BIN_MM",
    "MAX_CANDIDATES",
]
