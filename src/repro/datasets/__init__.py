"""Dataset assembly: the synthetic WVU 2012 collection."""

from .summary import render_collection_summary, summarize_collection
from .wvu2012 import (
    build_collection,
    load_quality_arrays,
    subject_artifact_digest,
    warm_artifacts,
)

__all__ = [
    "build_collection",
    "subject_artifact_digest",
    "load_quality_arrays",
    "warm_artifacts",
    "summarize_collection",
    "render_collection_summary",
]
