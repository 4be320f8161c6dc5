"""Minutiae matching engines (Identix BioEngine substitute + a diverse peer)."""

from .engine import BioEngineMatcher
from .ridgecount import RidgeGeometryMatcher


def build_matcher(name: str):
    """Instantiate a matcher engine by registry name."""
    if name == BioEngineMatcher.name:
        return BioEngineMatcher()
    if name == RidgeGeometryMatcher.name:
        return RidgeGeometryMatcher()
    raise ValueError(f"unknown matcher {name!r}")


__all__ = [
    "BioEngineMatcher",
    "RidgeGeometryMatcher",
    "build_matcher",
]
