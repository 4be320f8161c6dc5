"""Experiment-infrastructure substrate: seeding, parallelism, caching.

This package contains no biometrics; it is the plumbing that makes a
616,000-comparison empirical study deterministic, resumable and fast.
"""

from .cache import ScoreCache
from .config import StudyConfig
from .errors import ConfigurationError
from .parallel import parallel_map_batched
from .rng import SeedTree
from .shm import SharedTemplateStore, SharedTemplateView

__all__ = [
    "ScoreCache",
    "StudyConfig",
    "ConfigurationError",
    "parallel_map_batched",
    "SharedTemplateStore",
    "SharedTemplateView",
    "SeedTree",
]
