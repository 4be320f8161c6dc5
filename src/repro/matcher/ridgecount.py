"""A second, structurally different matcher (diverse-matcher substrate).

The paper's further-work list opens with "more detailed analysis on the
effects of diverse matchers on interoperability".  Diversity only helps
if the second engine fails differently from the first, so this matcher
shares *no* pipeline stages with :class:`BioEngineMatcher`.  It follows
the Bozorth3 idea instead: compare rotation/translation-invariant
*pairwise* structures directly, with no global alignment step.

For every intra-template minutia pair closer than a horizon:

* ``d``      — pair distance;
* ``beta1``  — direction of minutia 1 relative to the joining segment;
* ``beta2``  — direction of minutia 2 relative to the joining segment.

These triples are invariant to rigid motion.  Two templates are compared
by tolerantly matching their triple tables (greedy, each pair used
once); the score is the matched fraction mapped onto the same 0–24
scale so fusion can combine the engines without renormalizing.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .descriptors import wrap_angle
from .scoring import MIN_TEMPLATE_MINUTIAE, SCORE_SCALE
from .types import Template

#: Only pairs closer than this form table entries (Bozorth uses a similar cap).
PAIR_HORIZON_MM = 11.0

#: Matching tolerances for table entries.
DIST_TOL_MM = 0.55
BETA_TOL_RAD = np.deg2rad(16.0)


def _pair_table(template: Template) -> np.ndarray:
    """Build the (m, 3) invariant pair table of a template."""
    n = len(template)
    if n < 2:
        return np.zeros((0, 3))
    pos = template.positions_mm()
    ang = template.angles()
    diff = pos[None, :, :] - pos[:, None, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    ii, jj = np.where(np.triu(dist <= PAIR_HORIZON_MM, k=1))
    if ii.size == 0:
        return np.zeros((0, 3))
    segment = np.arctan2(diff[ii, jj, 1], diff[ii, jj, 0])
    beta1 = wrap_angle(ang[ii] - segment)
    beta2 = wrap_angle(ang[jj] - segment)
    return np.column_stack([dist[ii, jj], beta1, beta2])


class RidgeGeometryMatcher:
    """Alignment-free pairwise-structure matcher.

    Weaker than the BioEngine substitute (as Bozorth3 is weaker than
    commercial engines) but with *independent* failure modes: it has no
    alignment stage to mislead, so it degrades differently under
    cross-device distortion — which is the property matcher-diversity
    experiments need.
    """

    #: Name used by :class:`~repro.runtime.config.StudyConfig`.
    name = "ridgecount"

    def __init__(self, max_cache_entries: int = 4096) -> None:
        self._table_cache: Dict[Tuple[int, int, int], np.ndarray] = {}
        self._max_cache_entries = max_cache_entries

    def _table(self, template: Template) -> np.ndarray:
        # Keyed by content, not id(): a template built at a dead one's
        # recycled address must not inherit its table.
        key = template.content_key()
        cached = self._table_cache.get(key)
        if cached is not None:
            return cached
        table = _pair_table(template)
        if len(self._table_cache) >= self._max_cache_entries:
            self._table_cache.clear()
        self._table_cache[key] = table
        return table

    def match(self, probe: Template, gallery: Template) -> float:
        """Similarity score on the common 0–24 scale."""
        if len(probe) < MIN_TEMPLATE_MINUTIAE or len(gallery) < MIN_TEMPLATE_MINUTIAE:
            return 0.0
        table_p = self._table(probe)
        table_g = self._table(gallery)
        if table_p.shape[0] == 0 or table_g.shape[0] == 0:
            return 0.0

        d_ok = np.abs(table_p[:, 0:1] - table_g[None, :, 0].reshape(1, -1)) <= DIST_TOL_MM
        # Beta angles can swap ends depending on enumeration order; accept
        # either assignment.
        b1 = np.abs(wrap_angle(table_p[:, 1:2] - table_g[None, :, 1].reshape(1, -1)))
        b2 = np.abs(wrap_angle(table_p[:, 2:3] - table_g[None, :, 2].reshape(1, -1)))
        b1s = np.abs(wrap_angle(table_p[:, 1:2] - table_g[None, :, 2].reshape(1, -1)))
        b2s = np.abs(wrap_angle(table_p[:, 2:3] - table_g[None, :, 1].reshape(1, -1)))
        direct = (b1 <= BETA_TOL_RAD) & (b2 <= BETA_TOL_RAD)
        swapped = (b1s <= BETA_TOL_RAD) & (b2s <= BETA_TOL_RAD)
        compatible = d_ok & (direct | swapped)

        # Greedy one-to-one on the compatibility matrix via row/column caps.
        row_hits = compatible.any(axis=1).sum()
        col_hits = compatible.any(axis=0).sum()
        matched = float(min(row_hits, col_hits))

        denom = float(min(table_p.shape[0], table_g.shape[0]))
        ratio = matched / denom if denom > 0 else 0.0
        # Chance-level table agreement between impostors is substantial for
        # this alignment-free design; subtract the empirical chance floor
        # and rescale so the score lands on the shared 0-24 scale.
        adjusted = max(0.0, ratio - 0.18) / (1.0 - 0.18)
        return float(SCORE_SCALE * adjusted**1.5)

    def score_pairs(self, pairs: Sequence[Tuple[Template, Template]]) -> np.ndarray:
        """Scores of (probe, gallery) pairs, in input order: a :meth:`match` loop."""
        return np.array(
            [self.match(probe, gallery) for probe, gallery in pairs],
            dtype=np.float64,
        )


__all__ = ["RidgeGeometryMatcher", "PAIR_HORIZON_MM"]
