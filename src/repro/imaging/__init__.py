"""Image-domain substrate: rendering and minutiae extraction.

Closes the loop the template pipeline shortcut: render a finger as a
real ridge image (minutiae planted as phase spirals), then recover a
template from the image with a classical extractor (binarize →
Zhang–Suen skeleton → crossing number → artifact filtering).
"""

from .extraction import (
    ExtractionSettings,
    binarize,
    extract_template,
    recovery_metrics,
)
from .pipeline import ImagePipeline
from .render import (
    RenderSettings,
    render_finger,
    render_sensed_impression,
    to_uint8,
)

__all__ = [
    "RenderSettings",
    "render_finger",
    "render_sensed_impression",
    "to_uint8",
    "ExtractionSettings",
    "binarize",
    "extract_template",
    "recovery_metrics",
    "ImagePipeline",
]
