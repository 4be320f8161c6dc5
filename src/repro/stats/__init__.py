"""Self-contained statistics substrate.

Implements every statistical procedure the paper uses — Kendall's rank
correlation, FMR/FNMR operating points, histograms — plus bootstrap
intervals for stating the precision of reproduced numbers.  The test
suite cross-validates :func:`kendall_tau` against scipy where available.
"""

from .comparison import wilson_interval
from .descriptive import summarize
from .histogram import score_histogram
from .roc import det_points, fnmr_at_fmr, threshold_at_fmr

__all__ = [
    "wilson_interval",
    "summarize",
    "score_histogram",
    "det_points",
    "fnmr_at_fmr",
    "threshold_at_fmr",
]
