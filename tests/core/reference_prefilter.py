"""The plain formulation of the prefilter's top-K, kept as its oracle.

One exact ``Σ(x−q)²`` per row (an ``einsum`` over the full
``(n, dim)`` deltas) and a full sort by ``(distance, key)`` — no norm
expansion, no partial selection.  :meth:`PrefilterIndex.top_k` must
return exactly what this returns: same keys, same ranks, same floats.
"""

from typing import Dict, List

import numpy as np

from repro.core.prefilter import PrefilterCandidate


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
