"""Synthetic fingerprint generation (SFinGe-style).

Substitutes the paper's 494-participant WVU 2012 data collection with a
deterministic synthetic population: orientation fields from the
zero-pole model, ridge-consistent master minutiae, per-subject
interaction traits, and Figure 1 demographics.
"""

from .master import synthesize_master_finger
from .pattern import PatternClass
from .population import FINGER_LABELS, FINGER_POSITION_CODES, Population
from .ridges import ascii_preview, read_pgm, render_ridge_image, write_pgm

__all__ = [
    "synthesize_master_finger",
    "PatternClass",
    "Population",
    "FINGER_LABELS",
    "FINGER_POSITION_CODES",
    "render_ridge_image",
    "write_pgm",
    "read_pgm",
    "ascii_preview",
]
