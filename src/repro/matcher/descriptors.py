"""Rotation/translation-invariant local minutia descriptors.

Commercial minutiae matchers (the Identix BioEngine family included)
anchor global alignment on *local structures*: each minutia is described
by the geometry of its nearest neighbours expressed in the minutia's own
frame, which makes the description invariant to placement.  We use the
classical neighbourhood descriptor (Jiang & Yau style):

for minutia *i* and each of its K nearest neighbours *j*:

* ``distance``  — |p_j - p_i| in mm;
* ``azimuth``   — direction of (p_j - p_i) relative to *i*'s direction;
* ``relative``  — direction difference of the two minutiae.

Descriptor similarity tolerantly matches neighbour entries one-to-one;
the similarity matrix between two templates then feeds the alignment
stage with its candidate correspondences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import Template

#: Neighbours per descriptor.  :func:`similarity_matrix` reads a
#: minutia's K compatibility flags as one ``uint32``, so K is 4.
NEIGHBOURS = 4

#: Entry-matching tolerances.
DISTANCE_TOL_MM = 0.85
AZIMUTH_TOL_RAD = np.deg2rad(22.0)
RELATIVE_TOL_RAD = np.deg2rad(25.0)


def wrap_angle(values: np.ndarray) -> np.ndarray:
    """Wrap angle differences into (-pi, pi]."""
    return np.mod(np.asarray(values) + np.pi, 2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class DescriptorSet:
    """Per-minutia neighbourhood descriptors for one template.

    Attributes
    ----------
    entries:
        ``(n, K, 3)`` array of (distance, azimuth, relative) rows;
        minutiae with fewer than K neighbours pad with ``inf`` distance,
        which never matches.
    n:
        Number of minutiae described.
    channels:
        ``(3, n * K)`` contiguous per-channel copy of ``entries``: row
        ``c`` holds channel ``c`` of minutia ``i``'s K entries at
        ``i * K .. i * K + K - 1``, the layout :func:`similarity_matrix`
        reads.
    finite_counts:
        ``(n,)`` count of real (non-padding) neighbour entries per
        minutia.
    """

    entries: np.ndarray
    n: int
    channels: np.ndarray
    finite_counts: np.ndarray


def _descriptor_set(entries: np.ndarray, n: int) -> DescriptorSet:
    return DescriptorSet(
        entries=entries,
        n=n,
        channels=np.ascontiguousarray(entries.transpose(2, 0, 1)).reshape(3, -1),
        finite_counts=np.sum(np.isfinite(entries[:, :, 0]), axis=1),
    )


def build_descriptors(template: Template) -> DescriptorSet:
    """Compute the descriptor set of ``template`` (positions in mm)."""
    n = len(template)
    if n == 0:
        return _descriptor_set(np.zeros((0, NEIGHBOURS, 3)), 0)
    positions = template.positions_mm()
    angles = template.angles()

    diff = positions[None, :, :] - positions[:, None, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    np.fill_diagonal(dist, np.inf)

    k = min(NEIGHBOURS, max(n - 1, 0))
    entries = np.full((n, NEIGHBOURS, 3), np.inf, dtype=np.float64)
    if k > 0:
        neighbour_idx = np.argsort(dist, axis=1)[:, :k]
        rows = np.arange(n)[:, None]
        selected = diff[rows, neighbour_idx]  # (n, k, 2)
        azimuth = np.arctan2(selected[..., 1], selected[..., 0]) - angles[:, None]
        relative = angles[neighbour_idx] - angles[:, None]
        entries[:, :k, 0] = dist[rows, neighbour_idx]
        entries[:, :k, 1] = wrap_angle(azimuth)
        entries[:, :k, 2] = wrap_angle(relative)
    return _descriptor_set(entries, n)


def similarity_matrix(a: DescriptorSet, b: DescriptorSet) -> np.ndarray:
    """Descriptor similarity in [0, 1] for every minutia pair (a_i, b_j).

    Two neighbour entries are *compatible* when distance, azimuth and
    relative direction all fall within tolerance; each entry may be used
    once (greedy by compatibility count is unnecessary at K=4 — a
    one-pass greedy over the K x K compatibility table is exact enough
    and fully vectorizable across the pair grid).
    """
    if a.n == 0 or b.n == 0:
        return np.zeros((a.n, b.n), dtype=np.float64)

    cha, chb = a.channels, b.channels

    # Entry compatibility on the 2-D (na*K, nb*K) grid: cell
    # (i*K + p, j*K + q) compares entry p of a_i with entry q of b_j.
    # One outer difference per channel keeps numpy's inner loop as long
    # as a row of the grid instead of K elements.
    scratch = np.subtract.outer(cha[0], chb[0])
    np.abs(scratch, out=scratch)
    compatible = scratch <= DISTANCE_TOL_MM
    within = np.empty_like(compatible)
    wraps = np.empty_like(compatible)

    for channel, tolerance in ((1, AZIMUTH_TOL_RAD), (2, RELATIVE_TOL_RAD)):
        np.subtract.outer(cha[channel], chb[channel], out=scratch)
        # Angle entries are already wrapped into (-pi, pi], so their raw
        # difference lies in (-2pi, 2pi) and |wrap(difference)| <= tol is
        # exactly |difference| <= tol or |difference| >= 2pi - tol —
        # no modulo needed.
        np.abs(scratch, out=scratch)
        np.less_equal(scratch, tolerance, out=within)
        np.greater_equal(scratch, 2.0 * np.pi - tolerance, out=wraps)
        within |= wraps
        compatible &= within

    # Greedy one-to-one entry matching per (i, j): count row/column-unique
    # compatibilities.  With K=4 a simple double-sided cap is exact in the
    # overwhelming majority of cases and errs by at most one entry.
    #
    # The K=4 bools of b_j's entries in one grid row are one uint32, so
    # a non-zero word means "entry p of a_i matches some entry of b_j".
    words = compatible.view(np.uint32).reshape(a.n, NEIGHBOURS, b.n)
    hit = (words != 0).view(np.uint8)
    row_hits = hit[:, 0] + hit[:, 1] + hit[:, 2] + hit[:, 3]
    # OR-ing a_i's K words leaves one 0/1 byte per entry of b_j that
    # matches some entry of a_i; the multiply sums the four bytes into
    # the top byte (no carries: the sum is at most 4).
    col_any = words[:, 0] | words[:, 1] | words[:, 2] | words[:, 3]
    col_hits = (col_any * np.uint32(0x01010101)) >> np.uint32(24)
    matched = np.minimum(row_hits, col_hits)

    # matched <= min(finite_a, finite_b) because padding never matches,
    # so the ratio already lies in [0, 1] and is 0 where either side has
    # no real entries.
    k_effective = np.minimum.outer(a.finite_counts, b.finite_counts)
    np.maximum(k_effective, 1, out=k_effective)
    return matched / k_effective


__all__ = [
    "DescriptorSet",
    "build_descriptors",
    "similarity_matrix",
    "wrap_angle",
    "NEIGHBOURS",
    "DISTANCE_TOL_MM",
    "AZIMUTH_TOL_RAD",
    "RELATIVE_TOL_RAD",
]
