"""Minutia correspondence after alignment.

Once the probe is registered onto the gallery, minutiae pair up inside
*tolerance boxes*: a candidate pair must agree in position (within a
radius that absorbs jitter and mild elastic distortion) and direction.
Greedy nearest-first assignment resolves conflicts one-to-one, which is
what production minutiae matchers do (optimal assignment changes scores
negligibly at these densities and costs an order of magnitude more).

The pairing stage also determines the *overlap region* — the area both
impressions actually captured — so the score can normalize by how many
minutiae could possibly have matched, not by template size.  Without
this, partial-overlap captures (small platen D3, off-centre placements)
would be punished twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .alignment import RigidTransform
from .descriptors import wrap_angle

#: Position tolerance (mm) — about 1.6 ridge periods.
POSITION_TOL_MM = 0.80

#: Direction tolerance for a valid pair.
ANGLE_TOL_RAD = np.deg2rad(25.0)

#: Padding added around the point-cloud intersection when estimating overlap.
OVERLAP_PAD_MM = 1.0


@dataclass(frozen=True)
class PairingResult:
    """Correspondence outcome between an aligned template pair.

    Attributes
    ----------
    pairs:
        ``(m, 2)`` integer array of (index_in_A, index_in_B) matches.
    residuals_mm:
        Positional residual of each pair after alignment.
    angle_residuals_rad:
        Absolute direction residual of each pair.
    n_overlap_a, n_overlap_b:
        How many minutiae of each template lie in the common overlap
        region (the denominator of the score).
    """

    pairs: np.ndarray
    residuals_mm: np.ndarray
    angle_residuals_rad: np.ndarray
    n_overlap_a: int
    n_overlap_b: int

    @property
    def n_matched(self) -> int:
        """Number of matched minutia pairs."""
        return int(self.pairs.shape[0])


def pair_minutiae(
    positions_a: np.ndarray,
    angles_a: np.ndarray,
    positions_b: np.ndarray,
    angles_b: np.ndarray,
    transform: RigidTransform,
    position_tol_mm: float = POSITION_TOL_MM,
    angle_tol_rad: float = ANGLE_TOL_RAD,
) -> PairingResult:
    """Match template A (transformed) against template B.

    Parameters are mm-space positions/directions; ``transform`` maps A
    into B's frame.  The tolerances default to the engine's calibrated
    values; the tolerance-ablation benchmark sweeps them.
    """
    if len(positions_a) == 0 or len(positions_b) == 0:
        return PairingResult(
            pairs=np.zeros((0, 2), dtype=np.int64),
            residuals_mm=np.zeros(0),
            angle_residuals_rad=np.zeros(0),
            n_overlap_a=0,
            n_overlap_b=0,
        )

    moved_a = transform.apply(positions_a)
    moved_angles_a = transform.apply_angles(angles_a)

    dist = np.subtract.outer(moved_a[:, 0], positions_b[:, 0])
    dist *= dist
    dy = np.subtract.outer(moved_a[:, 1], positions_b[:, 1])
    dy *= dy
    dist += dy
    np.sqrt(dist, out=dist)
    # The position test rejects nearly every candidate cell, so direction
    # residuals are computed only where position already agrees — the same
    # element-wise arithmetic, therefore identical feasibility decisions.
    close_i, close_j = np.nonzero(dist <= position_tol_mm)

    if close_i.size:
        angle_diff = np.abs(
            wrap_angle(moved_angles_a[close_i] - angles_b[close_j])
        )
        within_angle = angle_diff <= angle_tol_rad
        feas_i = close_i[within_angle]
        feas_j = close_j[within_angle]
        feas_dist = dist[feas_i, feas_j]
        feas_angle = angle_diff[within_angle]
        # Greedy nearest-first over the feasible entries only; sorting the
        # (usually sparse) feasible set is equivalent to sorting the full
        # cost matrix and stopping at the first infinite entry.  The loop
        # runs on Python ints, and gathers the kept entries once at the end.
        order = np.argsort(feas_dist + 0.3 * feas_angle)
        used_a = bytearray(len(positions_a))
        used_b = bytearray(len(positions_b))
        kept: List[int] = []
        for idx, i, j in zip(
            order.tolist(), feas_i[order].tolist(), feas_j[order].tolist()
        ):
            if used_a[i] or used_b[j]:
                continue
            used_a[i] = used_b[j] = 1
            kept.append(idx)
        pairs = np.empty((len(kept), 2), dtype=np.int64)
        pairs[:, 0] = feas_i[kept]
        pairs[:, 1] = feas_j[kept]
        residuals = feas_dist[kept]
        angle_residuals = feas_angle[kept]
    else:
        pairs = np.zeros((0, 2), dtype=np.int64)
        residuals, angle_residuals = np.zeros(0), np.zeros(0)

    n_overlap_a, n_overlap_b = _overlap_counts(moved_a, positions_b)
    return PairingResult(
        pairs=pairs,
        residuals_mm=residuals,
        angle_residuals_rad=angle_residuals,
        n_overlap_a=n_overlap_a,
        n_overlap_b=n_overlap_b,
    )


def _overlap_counts(moved_a: np.ndarray, positions_b: np.ndarray) -> Tuple[int, int]:
    """Minutiae of each template inside the common bounding-box overlap."""
    lo = np.maximum(moved_a.min(axis=0), positions_b.min(axis=0))
    lo -= OVERLAP_PAD_MM
    hi = np.minimum(moved_a.max(axis=0), positions_b.max(axis=0))
    hi += OVERLAP_PAD_MM
    (lo_x, lo_y), (hi_x, hi_y) = lo.tolist(), hi.tolist()
    if hi_x <= lo_x or hi_y <= lo_y:
        return 0, 0
    return _count_inside(moved_a, lo, hi), _count_inside(positions_b, lo, hi)


def _count_inside(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
    """Rows of the ``(n, 2)`` ``points`` inside the box ``[lo, hi]``."""
    inside = points >= lo
    inside &= points <= hi
    return int(np.count_nonzero(inside[:, 0] & inside[:, 1]))


__all__ = [
    "PairingResult",
    "pair_minutiae",
    "POSITION_TOL_MM",
    "ANGLE_TOL_RAD",
    "OVERLAP_PAD_MM",
]
