"""Plain formulations of the prefilter, kept as its oracles.

``top_k``: one exact ``Σ(x−q)²`` per row (an ``einsum`` over the full
``(n, dim)`` deltas) and a full sort by ``(distance, key)`` — no norm
expansion, no partial selection.  :meth:`PrefilterIndex.top_k` must
return exactly what this returns: same keys, same ranks, same floats.

``descriptor_vector``: the descriptor as first written — a second n×n
distance matrix for the spacing statistics and one ``np.add.at`` per
soft-binning corner.  :func:`repro.core.prefilter.descriptor_vector`
must return the same bytes (``DESCRIPTOR_VERSION`` did not change).
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.core.prefilter import PrefilterCandidate
from repro.matcher.descriptors import build_descriptors
from repro.quality.nfiq import quality_utility, template_quality_features


def top_k(
    rows: Dict[str, np.ndarray], vector: np.ndarray, k: int
) -> List[PrefilterCandidate]:
    """The first ``k`` of ``{key: row}`` by ``(distance, key)``."""
    if not rows:
        return []
    keys = list(rows)
    live = np.stack([np.asarray(rows[key], dtype=np.float64) for key in keys])
    probe = np.asarray(vector, dtype=np.float64).ravel()
    deltas = live - probe[None, :]
    sq = np.einsum("ij,ij->i", deltas, deltas)
    order = sorted((float(np.sqrt(sq[i])), key) for i, key in enumerate(keys))
    return [
        PrefilterCandidate(key=key, distance=distance, rank=rank)
        for rank, (distance, key) in enumerate(order[:k], start=1)
    ]


_WEIGHTS = np.concatenate([
    np.full(512, 3.0), [0.3], [0.15], [0.15, 0.075], [0.15, 0.075], [0.09], [0.09],
])


def _axis_parts(scaled: np.ndarray, bins: int, wrap: bool):
    low = np.floor(scaled).astype(np.int64)
    frac = scaled - low
    if wrap:
        return ((np.mod(low, bins), 1.0 - frac), (np.mod(low + 1, bins), frac))
    return (
        (np.clip(low, 0, bins - 1), 1.0 - frac),
        (np.clip(low + 1, 0, bins - 1), frac),
    )


def _structure_histogram(template) -> np.ndarray:
    entries = build_descriptors(template).entries.reshape(-1, 3)
    entries = entries[np.isfinite(entries[:, 0])]
    hist = np.zeros((8, 8, 8), dtype=np.float64)
    if len(entries) == 0:
        return hist.ravel()
    dist = np.clip(entries[:, 0] / 10.0, 0.0, 1.0 - 1e-9) * 8 - 0.5
    azimuth = (entries[:, 1] + np.pi) / (2.0 * np.pi) * 8 - 0.5
    relative = (entries[:, 2] + np.pi) / (2.0 * np.pi) * 8 - 0.5
    for d_idx, d_wgt in _axis_parts(dist, 8, wrap=False):
        for a_idx, a_wgt in _axis_parts(azimuth, 8, wrap=True):
            for r_idx, r_wgt in _axis_parts(relative, 8, wrap=True):
                np.add.at(hist, (d_idx, a_idx, r_idx), d_wgt * a_wgt * r_wgt)
    return hist.ravel() / len(entries)


def _spacing_stats(positions_mm: np.ndarray) -> Tuple[float, float]:
    n = len(positions_mm)
    if n < 2:
        return 0.0, 0.0
    deltas = positions_mm[:, None, :] - positions_mm[None, :, :]
    dist = np.sqrt((deltas ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    nearest = np.tanh(dist.min(axis=1) / 2.0)
    return float(nearest.mean()), float(nearest.std())


def descriptor_vector(template) -> np.ndarray:
    """The prefilter descriptor, version 1, as first written."""
    n = len(template)
    features = template_quality_features(template)
    if n:
        qualities = template.qualities().astype(np.float64) / 100.0
        quality_mean = float(qualities.mean())
        quality_std = float(qualities.std())
        bif_fraction = float((template.kinds() == 2).mean())
        spacing_mean, spacing_std = _spacing_stats(template.positions_mm())
    else:
        quality_mean = quality_std = bif_fraction = 0.0
        spacing_mean = spacing_std = 0.0
    raw = np.concatenate([
        _structure_histogram(template),
        [np.tanh(n / 60.0)],
        [bif_fraction],
        [quality_mean, quality_std],
        [spacing_mean, spacing_std],
        [features.contact_area_fraction],
        [quality_utility(features)],
    ])
    return raw * _WEIGHTS
