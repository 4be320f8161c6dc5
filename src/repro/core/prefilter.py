"""Fixed-length template descriptors and the top-K prefilter index.

The exact minutiae matcher is O(gallery) in the most expensive kernel:
every ``/identify`` pays one full alignment-and-pairing run per enrolled
template.  That cannot survive the million-identity north star.  This
module provides the coarse first stage of a two-stage search: a cheap,
fixed-length **descriptor vector** per template, plus a
:class:`PrefilterIndex` holding all gallery descriptors in one
contiguous matrix so a probe's top-K nearest candidates fall out of a
single vectorized numpy pass.  Only the K survivors are handed to the
exact matcher; the exhaustive path remains the recall oracle
(:func:`repro.core.identification.rank_candidates`).

The descriptor is a *bag of local structures*: a joint soft histogram
over the rotation- and translation-invariant neighbourhood entries the
exact matcher itself computes (:func:`repro.matcher.descriptors.
build_descriptors` — per-minutia (distance, azimuth, relative-angle)
triples in the Jiang & Yau local frame), concatenated with the
NFIQ-style scalar evidence from
:func:`repro.quality.nfiq.template_quality_features` (minutiae count,
contact area, quality statistics) and a nearest-neighbour
ridge-spacing summary.  Pose invariance is the decisive property: two
impressions of one finger differ by a global rotation/translation that
absolute-coordinate features cannot survive, while the local-frame
entries move only with capture jitter.

Design constraints, in order:

* **Deterministic** — the same template always produces the same
  vector (the gallery persists descriptors, so drift would poison the
  index; :data:`DESCRIPTOR_VERSION` guards format changes).
* **Smooth** — trilinear/circular soft binning everywhere, so the
  jitter between two impressions of one finger moves mass between
  adjacent bins instead of teleporting it; the mate's descriptor stays
  near the enrollment's.
* **Cheap** — pure numpy on arrays the template already exposes;
  building a descriptor costs well under a millisecond, searching 100k
  of them costs milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..matcher.descriptors import build_descriptors
from ..matcher.types import Template
from ..quality.nfiq import quality_utility, template_quality_features
from ..runtime.errors import ConfigurationError

#: Bump when the descriptor layout or weighting changes; persisted
#: descriptors with another version are recomputed, never compared.
DESCRIPTOR_VERSION = 1

#: Joint structure-histogram resolution: distance x azimuth x relative.
_DIST_BINS = 8
_AZIMUTH_BINS = 8
_RELATIVE_BINS = 8

#: Neighbour distances beyond this are clamped into the last bin (mm).
_DIST_RANGE_MM = 10.0

#: Vector layout: structure histogram, count, bifurcation fraction,
#: quality mean/std, neighbour-spacing mean/std, contact area, NFIQ
#: utility.
_BAG_DIM = _DIST_BINS * _AZIMUTH_BINS * _RELATIVE_BINS
DESCRIPTOR_DIM = _BAG_DIM + 1 + 1 + 2 + 2 + 1 + 1

#: Per-block weights: the pose-invariant structure histogram carries
#: nearly all of the identity signal; the scalar statistics only refine
#: the ordering between structurally similar templates, and are kept
#: deliberately light because count/quality/contact evidence shifts
#: systematically between capture devices.
_WEIGHTS = np.concatenate([
    np.full(_BAG_DIM, 3.0),                 # bag of local structures
    [0.3],                                  # minutiae count (squashed)
    [0.15],                                 # bifurcation fraction
    [0.15, 0.075],                          # minutia quality mean/std
    [0.15, 0.075],                          # ridge-spacing proxy mean/std
    [0.09],                                 # contact area fraction
    [0.09],                                 # NFIQ utility
])
assert _WEIGHTS.shape == (DESCRIPTOR_DIM,)


def _axis_parts(scaled: np.ndarray, bins: int, wrap: bool):
    """Soft-binning halves for one histogram axis.

    ``scaled`` is the bin-center coordinate (value already mapped onto
    [-0.5, bins - 0.5]); each sample splits its mass between the two
    surrounding bins.  Circular axes wrap, linear axes clamp at the
    edges.
    """
    low = np.floor(scaled).astype(np.int64)
    frac = scaled - low
    if wrap:
        return ((np.mod(low, bins), 1.0 - frac), (np.mod(low + 1, bins), frac))
    return (
        (np.clip(low, 0, bins - 1), 1.0 - frac),
        (np.clip(low + 1, 0, bins - 1), frac),
    )


def _structure_histogram(entries: np.ndarray) -> np.ndarray:
    """The bag of local structures: a joint soft 3D histogram.

    Pools every finite neighbourhood entry the exact matcher's
    Jiang & Yau descriptor builder produces — (distance, azimuth,
    relative-angle) triples expressed in each minutia's own frame, hence
    invariant to the global pose difference between two captures — into
    one trilinearly soft-binned histogram, normalized by entry count.

    The eight corners are summed by one ``bincount`` over the corners
    laid end to end in (distance, azimuth, relative) loop order, which
    adds every bin's terms in the same order one ``np.add.at`` per
    corner did, so the floats are the same.
    """
    entries = entries.reshape(-1, 3)
    entries = entries[np.isfinite(entries[:, 0])]
    if len(entries) == 0:
        return np.zeros(_BAG_DIM, dtype=np.float64)
    dist = np.clip(entries[:, 0] / _DIST_RANGE_MM, 0.0, 1.0 - 1e-9) * _DIST_BINS - 0.5
    azimuth = (entries[:, 1] + np.pi) / (2.0 * np.pi) * _AZIMUTH_BINS - 0.5
    relative = (entries[:, 2] + np.pi) / (2.0 * np.pi) * _RELATIVE_BINS - 0.5
    d_parts = _axis_parts(dist, _DIST_BINS, wrap=False)
    a_parts = _axis_parts(azimuth, _AZIMUTH_BINS, wrap=True)
    r_parts = _axis_parts(relative, _RELATIVE_BINS, wrap=True)
    bins, weights = [], []
    for d_idx, d_wgt in d_parts:
        for a_idx, a_wgt in a_parts:
            da_bin = (d_idx * _AZIMUTH_BINS + a_idx) * _RELATIVE_BINS
            da_wgt = d_wgt * a_wgt
            for r_idx, r_wgt in r_parts:
                bins.append(da_bin + r_idx)
                weights.append(da_wgt * r_wgt)
    hist = np.bincount(
        np.concatenate(bins), np.concatenate(weights), minlength=_BAG_DIM
    )
    return hist / len(entries)


def _spacing_stats(nearest_mm: np.ndarray) -> Tuple[float, float]:
    """Mean/std of each minutia's nearest-neighbour distance (mm).

    The ridge-count proxy: minutiae sit on ridges, so their typical
    spacing tracks local ridge period — without any image in sight.
    Distances are squashed through ``tanh(d / 2 mm)`` onto [0, 1].
    """
    nearest = np.tanh(nearest_mm / 2.0)
    return float(nearest.mean()), float(nearest.std())


def descriptor_vector(template: Template) -> np.ndarray:
    """The fixed-length prefilter descriptor of one template.

    A weighted float64 vector of length :data:`DESCRIPTOR_DIM`; Euclidean
    distance between two vectors is the prefilter's coarse dissimilarity.
    Deterministic: depends only on the template's minutiae and frame.
    """
    n = len(template)
    features = template_quality_features(template)
    entries = build_descriptors(template).entries
    if n:
        qualities = template.qualities().astype(np.float64) / 100.0
        quality_mean = float(qualities.mean())
        quality_std = float(qualities.std())
        bif_fraction = float((template.kinds() == 2).mean())
    else:
        quality_mean = quality_std = bif_fraction = 0.0
    if n >= 2:
        # The first neighbour entry is each minutia's nearest distance.
        spacing_mean, spacing_std = _spacing_stats(entries[:, 0, 0])
    else:
        spacing_mean = spacing_std = 0.0
    raw = np.concatenate([
        _structure_histogram(entries),
        [np.tanh(n / 60.0)],
        [bif_fraction],
        [quality_mean, quality_std],
        [spacing_mean, spacing_std],
        [features.contact_area_fraction],
        [quality_utility(features)],
    ])
    return raw * _WEIGHTS


@dataclass(frozen=True)
class PrefilterCandidate:
    """One survivor of the coarse stage: key, distance, 1-based rank."""

    key: str
    distance: float
    rank: int


class PrefilterIndex:
    """A contiguous matrix of descriptors supporting vectorized top-K.

    Keys are arbitrary strings (the gallery uses identities).  ``add``
    replaces an existing key's row in place; ``remove`` swaps the last
    row into the hole, so the matrix stays contiguous without shifting —
    enroll and delete are both O(1) row operations (amortized: the
    backing array doubles when full).

    ``top_k`` ranks every row with one matrix-vector product against
    cached squared row norms, then recomputes the exact distance only
    for the rows that can still reach the top K; the result is the
    first K rows by ``(distance, key)``, so ties are deterministic.
    """

    def __init__(self, dim: int = DESCRIPTOR_DIM, capacity: int = 0) -> None:
        if dim < 1:
            raise ConfigurationError(f"descriptor dim must be >= 1, got {dim}")
        self._dim = dim
        self._keys: List[str] = []
        self._pos: Dict[str, int] = {}
        # ``capacity`` rows are allocated up front, so a caller that knows
        # its row count fills the matrix without regrowing it.
        self._matrix = np.empty((capacity, dim), dtype=np.float64)
        #: Squared norm of each row, parallel to ``_matrix``.
        self._norms = np.empty(capacity, dtype=np.float64)

    @classmethod
    def from_items(
        cls, items: Dict[str, np.ndarray], dim: int = DESCRIPTOR_DIM
    ) -> "PrefilterIndex":
        """Bulk-build an index from ``{key: descriptor}``."""
        index = cls(dim=dim, capacity=len(items))
        for key, vector in items.items():
            index.add(key, vector)
        return index

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._pos

    @property
    def dim(self) -> int:
        return self._dim

    def keys(self) -> List[str]:
        """Row-ordered keys (parallel to :meth:`matrix` rows)."""
        return list(self._keys)

    def matrix(self) -> np.ndarray:
        """The (n, dim) descriptor matrix — a contiguous copy."""
        return self._matrix[: len(self._keys)].copy()

    def vector(self, key: str) -> np.ndarray:
        """One key's descriptor row (a copy, safe to keep)."""
        slot = self._pos.get(key)
        if slot is None:
            raise ConfigurationError(f"prefilter index has no key {key!r}")
        return self._matrix[slot].copy()

    def _check(self, vector: np.ndarray) -> np.ndarray:
        arr = np.asarray(vector, dtype=np.float64).ravel()
        if arr.shape != (self._dim,):
            raise ConfigurationError(
                f"descriptor must have shape ({self._dim},), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError("descriptor contains non-finite values")
        return arr

    def add(self, key: str, vector: np.ndarray) -> None:
        """Insert (or replace) one descriptor row."""
        arr = self._check(vector)
        slot = self._pos.get(key)
        if slot is None:
            slot = len(self._keys)
            if slot == self._matrix.shape[0]:
                capacity = max(8, 2 * slot)
                grown = np.empty((capacity, self._dim), dtype=np.float64)
                grown[:slot] = self._matrix[:slot]
                norms = np.empty(capacity, dtype=np.float64)
                norms[:slot] = self._norms[:slot]
                self._matrix, self._norms = grown, norms
            self._pos[key] = slot
            self._keys.append(key)
        self._matrix[slot] = arr
        self._norms[slot] = arr @ arr

    def remove(self, key: str) -> None:
        """Drop one key (swap-with-last keeps the matrix contiguous)."""
        slot = self._pos.pop(key, None)
        if slot is None:
            raise ConfigurationError(f"prefilter index has no key {key!r}")
        last = len(self._keys) - 1
        if slot != last:
            self._keys[slot] = self._keys[last]
            self._matrix[slot] = self._matrix[last]
            self._norms[slot] = self._norms[last]
            self._pos[self._keys[slot]] = slot
        self._keys.pop()

    def top_k(self, vector: np.ndarray, k: int) -> List[PrefilterCandidate]:
        """The K nearest keys by Euclidean distance, nearest first.

        Exactly the first K rows by ``(distance, key)``, where distance
        is the square root of ``einsum`` over ``(row - probe)**2`` — but
        that per-row pass runs only on the rows near the K-th place.
        """
        if k < 1:
            raise ConfigurationError(f"top_k needs k >= 1, got {k}")
        n = len(self._keys)
        if n == 0:
            return []
        probe = self._check(vector)
        live = self._matrix[:n]
        norms = self._norms[:n]
        probe_sq = float(probe @ probe)
        approx = norms - 2.0 * (live @ probe) + probe_sq
        k = min(k, n)
        kth = np.partition(approx, k - 1)[k - 1]
        # Rounding margin.  A float64 dot product over D terms errs by
        # at most gamma_D = D*eps/(1 - D*eps) (eps = 2**-53) times the
        # sum of |terms|, so the expansion above and the exact pass below
        # each stay within about 2*gamma_D*(|row|^2 + |probe|^2) of the
        # true squared distance: 1.2e-13 of that scale at D = 520.  Every
        # row of the exact first K, ties included, so lies within twice
        # that above the K-th approximate value; 1e-9 of the scale clears
        # the bound by four orders and still admits only near-ties.
        margin = 1e-9 * (float(norms.max()) + probe_sq)
        near = np.flatnonzero(approx <= kth + margin)
        deltas = live[near] - probe[None, :]
        sq = np.einsum("ij,ij->i", deltas, deltas)
        order = sorted(
            (float(np.sqrt(d)), self._keys[i])
            for d, i in zip(sq, near.tolist())
        )[:k]
        return [
            PrefilterCandidate(key=key, distance=distance, rank=rank)
            for rank, (distance, key) in enumerate(order, start=1)
        ]


def merge_shard_candidates(
    shards: Sequence[Sequence[PrefilterCandidate]], k: int
) -> List[PrefilterCandidate]:
    """Merge per-shard top-K lists into one global top-K (re-ranked).

    Exact for any metric: the global K nearest are each within their own
    shard's K nearest, so taking every shard's local top-K and re-sorting
    loses nothing.  A key appearing in several shards (overlapping
    shards, or a retried fan-out that answered twice) survives once, at
    its nearest distance — for disjoint shards, the worker-pool case,
    this dedup is a no-op.  Ties break on ``(distance, key)``, the same
    total order :meth:`PrefilterIndex.top_k` uses, so the merged ranking
    is deterministic regardless of shard count or arrival order.
    """
    if k < 1:
        return []
    pooled = sorted(
        (c.distance, c.key) for shard in shards for c in shard
    )
    merged: List[PrefilterCandidate] = []
    seen = set()
    for distance, key in pooled:
        if key in seen:
            continue
        seen.add(key)
        merged.append(
            PrefilterCandidate(
                key=key, distance=distance, rank=len(merged) + 1
            )
        )
        if len(merged) == k:
            break
    return merged


__all__ = [
    "DESCRIPTOR_DIM",
    "DESCRIPTOR_VERSION",
    "descriptor_vector",
    "PrefilterCandidate",
    "PrefilterIndex",
    "merge_shard_candidates",
]
