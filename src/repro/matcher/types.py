"""Template and minutia datatypes shared by the whole pipeline.

A :class:`Template` is what a feature extractor emits and what matchers
consume: minutiae in *pixel* coordinates at a known resolution, plus
image dimensions.  Coordinates follow the ANSI/INCITS 378 convention —
origin at the top-left of the image, x rightward, y downward, minutia
angle measured counterclockwise from the positive x axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..runtime.errors import MatcherError

#: Minutia kind markers (values match the INCITS 378 2-bit type field).
KIND_ENDING = 1
KIND_BIFURCATION = 2

_KIND_NAMES = {KIND_ENDING: "ending", KIND_BIFURCATION: "bifurcation"}


@dataclass(frozen=True)
class Minutia:
    """A single detected minutia.

    Attributes
    ----------
    x, y:
        Pixel coordinates (may be fractional before encoding).
    angle:
        Direction in radians, [0, 2*pi).
    kind:
        :data:`KIND_ENDING` or :data:`KIND_BIFURCATION`.
    quality:
        Detection confidence 0–100 (INCITS 378 convention).
    """

    x: float
    y: float
    angle: float
    kind: int
    quality: int = 60

    def __post_init__(self) -> None:
        if self.kind not in _KIND_NAMES:
            raise MatcherError(f"invalid minutia kind {self.kind}")
        if not 0 <= self.quality <= 100:
            raise MatcherError(f"minutia quality must be 0..100, got {self.quality}")
        # math.isfinite takes the same float-convertible values as
        # np.isfinite at a fraction of the per-call cost.
        if not math.isfinite(self.x) or not math.isfinite(self.y):
            raise MatcherError("minutia coordinates must be finite")
        if not 0.0 <= self.angle < 2.0 * math.pi + 1e-9:
            raise MatcherError(f"minutia angle must be in [0, 2*pi), got {self.angle}")

    @property
    def kind_name(self) -> str:
        """Human-readable kind."""
        return _KIND_NAMES[self.kind]


@dataclass(frozen=True)
class Template:
    """A fingerprint template: minutiae + capture metadata.

    Attributes
    ----------
    minutiae:
        The detected minutiae.
    width_px, height_px:
        Source image dimensions.
    resolution_dpi:
        Capture resolution (500 for every device in the study).
    """

    minutiae: Tuple[Minutia, ...]
    width_px: int
    height_px: int
    resolution_dpi: int = 500

    def __post_init__(self) -> None:
        if self.width_px <= 0 or self.height_px <= 0:
            raise MatcherError("template image dimensions must be positive")
        if self.resolution_dpi <= 0:
            raise MatcherError("resolution must be positive")

    def __len__(self) -> int:
        return len(self.minutiae)

    def content_key(self) -> Tuple[int, int, int]:
        """Cheap content fingerprint for memoization.

        Unlike ``id()``, this key survives the allocator recycling object
        addresses, so caches keyed by it can never serve another
        template's data.  Computed once per instance (the memo write uses
        ``object.__setattr__`` because the dataclass is frozen).
        """
        key = self.__dict__.get("_content_key")
        if key is None:
            key = (len(self.minutiae), self.resolution_dpi, hash(self.minutiae))
            object.__setattr__(self, "_content_key", key)
        return key

    @property
    def pixels_per_mm(self) -> float:
        """Conversion factor from millimetres to pixels."""
        return self.resolution_dpi / 25.4

    def positions_px(self) -> np.ndarray:
        """(n, 2) array of minutia pixel positions."""
        if not self.minutiae:
            return np.zeros((0, 2), dtype=np.float64)
        return np.array([[m.x, m.y] for m in self.minutiae], dtype=np.float64)

    def positions_mm(self) -> np.ndarray:
        """(n, 2) array of positions in millimetres (matcher-internal unit)."""
        return self.positions_px() / self.pixels_per_mm

    def angles(self) -> np.ndarray:
        """(n,) array of minutia directions in radians."""
        if not self.minutiae:
            return np.zeros(0, dtype=np.float64)
        return np.array([m.angle for m in self.minutiae], dtype=np.float64)

    def kinds(self) -> np.ndarray:
        """(n,) array of kind codes."""
        if not self.minutiae:
            return np.zeros(0, dtype=np.int64)
        return np.array([m.kind for m in self.minutiae], dtype=np.int64)

    def qualities(self) -> np.ndarray:
        """(n,) array of per-minutia qualities (0–100)."""
        if not self.minutiae:
            return np.zeros(0, dtype=np.int64)
        return np.array([m.quality for m in self.minutiae], dtype=np.int64)


def template_from_arrays(
    positions_px: Sequence[Sequence[float]],
    angles: Sequence[float],
    kinds: Sequence[int],
    qualities: Sequence[int],
    width_px: int,
    height_px: int,
    resolution_dpi: int = 500,
) -> Template:
    """Assemble a :class:`Template` from parallel arrays (pipeline helper)."""
    pos = np.asarray(positions_px, dtype=np.float64).reshape(-1, 2)
    ang = np.asarray(angles, dtype=np.float64).ravel()
    knd = np.asarray(kinds, dtype=np.int64).ravel()
    qua = np.asarray(qualities, dtype=np.int64).ravel()
    if not (len(pos) == len(ang) == len(knd) == len(qua)):
        raise MatcherError("parallel minutia arrays must have equal length")
    # One array operation per column; ``tolist`` hands Minutia plain
    # Python scalars, so validation runs without numpy-scalar overhead.
    minutiae = tuple(
        Minutia(x=x, y=y, angle=angle, kind=kind, quality=quality)
        for (x, y), angle, kind, quality in zip(
            pos.tolist(),
            np.mod(ang, 2.0 * np.pi).tolist(),
            knd.tolist(),
            np.clip(qua, 0, 100).tolist(),
        )
    )
    return Template(
        minutiae=minutiae,
        width_px=width_px,
        height_px=height_px,
        resolution_dpi=resolution_dpi,
    )


__all__ = [
    "Minutia",
    "Template",
    "template_from_arrays",
    "KIND_ENDING",
    "KIND_BIFURCATION",
]
