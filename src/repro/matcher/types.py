"""Template and minutia datatypes shared by the whole pipeline.

A :class:`Template` is what a feature extractor emits and what matchers
consume: minutiae in *pixel* coordinates at a known resolution, plus
image dimensions.  Coordinates follow the ANSI/INCITS 378 convention —
origin at the top-left of the image, x rightward, y downward, minutia
angle measured counterclockwise from the positive x axis.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

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


@dataclass(frozen=True, init=False, eq=False)
class Template:
    """A fingerprint template: minutiae + capture metadata.

    The minutiae are held as four read-only columns — positions
    ``(n, 2)`` float64 in pixels, angles float64, kinds int64 and
    qualities int64 — which the matcher, the codecs and the stores read
    directly.  ``minutiae`` stays a dataclass field, so
    ``Template(minutiae=...)``, :func:`dataclasses.replace` and
    :func:`dataclasses.fields` behave as for a plain dataclass, but its
    tuple of :class:`Minutia` is built from the columns on each read.

    Attributes
    ----------
    minutiae:
        The detected minutiae (built on demand).
    width_px, height_px:
        Source image dimensions.
    resolution_dpi:
        Capture resolution (500 for every device in the study).
    """

    # A property as the field's class attribute: with ``init=False`` the
    # dataclass keeps it, and ``replace``/``fields`` still see the field.
    minutiae: Tuple[Minutia, ...] = property(  # type: ignore[assignment]
        lambda self: self._build_minutiae()
    )
    width_px: int
    height_px: int
    resolution_dpi: int = 500

    def __init__(
        self,
        minutiae: Iterable[Minutia],
        width_px: int,
        height_px: int,
        resolution_dpi: int = 500,
    ) -> None:
        rows = tuple(minutiae)
        self._set_columns(
            np.array([(m.x, m.y) for m in rows], dtype=np.float64).reshape(-1, 2),
            np.array([m.angle for m in rows], dtype=np.float64),
            np.array([m.kind for m in rows], dtype=np.int64),
            np.array([m.quality for m in rows], dtype=np.int64),
            width_px, height_px, resolution_dpi,
        )

    def _set_columns(
        self, positions, angles, kinds, qualities, width_px, height_px, resolution_dpi
    ) -> None:
        if width_px <= 0 or height_px <= 0:
            raise MatcherError("template image dimensions must be positive")
        if resolution_dpi <= 0:
            raise MatcherError("resolution must be positive")
        for column in (positions, angles, kinds, qualities):
            column.flags.writeable = False
        set_field = object.__setattr__
        set_field(self, "_positions", positions)
        set_field(self, "_angles", angles)
        set_field(self, "_kinds", kinds)
        set_field(self, "_qualities", qualities)
        set_field(self, "width_px", width_px)
        set_field(self, "height_px", height_px)
        set_field(self, "resolution_dpi", resolution_dpi)

    def _build_minutiae(self) -> Tuple[Minutia, ...]:
        return tuple(
            Minutia(x=x, y=y, angle=angle, kind=kind, quality=quality)
            for (x, y), angle, kind, quality in zip(
                self._positions.tolist(),
                self._angles.tolist(),
                self._kinds.tolist(),
                self._qualities.tolist(),
            )
        )

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writeable; the columns stay frozen.
        self.__dict__.update(state)
        for name in ("_positions", "_angles", "_kinds", "_qualities"):
            state[name].flags.writeable = False

    def __len__(self) -> int:
        return len(self._angles)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.width_px == other.width_px
            and self.height_px == other.height_px
            and self.resolution_dpi == other.resolution_dpi
            and np.array_equal(self._positions, other._positions)
            and np.array_equal(self._angles, other._angles)
            and np.array_equal(self._kinds, other._kinds)
            and np.array_equal(self._qualities, other._qualities)
        )

    def __hash__(self) -> int:
        return hash((self.content_key(), self.width_px, self.height_px))

    def content_key(self) -> Tuple[int, int, int]:
        """Cheap content fingerprint for memoization.

        ``(minutia count, resolution, 64-bit BLAKE2b digest of the four
        columns' bytes)``, with ``-0.0`` hashed as ``0.0`` so equal
        templates share a key.  Unlike ``id()``, this key survives the
        allocator recycling object addresses, so caches keyed by it can
        never serve another template's data; unlike ``hash()`` of bytes it
        is the same in every process.  Computed once per instance (the
        memo write uses ``object.__setattr__`` because the dataclass is
        frozen).
        """
        key = self.__dict__.get("_content_key")
        if key is None:
            digest = hashlib.blake2b(digest_size=8)
            # Adding 0.0 turns -0.0 into 0.0 and leaves every other value.
            digest.update((self._positions + 0.0).tobytes())
            digest.update((self._angles + 0.0).tobytes())
            digest.update(self._kinds.tobytes())
            digest.update(self._qualities.tobytes())
            key = (
                len(self),
                self.resolution_dpi,
                int.from_bytes(digest.digest(), "little"),
            )
            object.__setattr__(self, "_content_key", key)
        return key

    @property
    def pixels_per_mm(self) -> float:
        """Conversion factor from millimetres to pixels."""
        return self.resolution_dpi / 25.4

    def positions_px(self) -> np.ndarray:
        """(n, 2) array of minutia pixel positions (read-only)."""
        return self._positions

    def positions_mm(self) -> np.ndarray:
        """(n, 2) array of positions in millimetres (matcher-internal unit)."""
        return self._positions / self.pixels_per_mm

    def angles(self) -> np.ndarray:
        """(n,) array of minutia directions in radians (read-only)."""
        return self._angles

    def kinds(self) -> np.ndarray:
        """(n,) array of kind codes (read-only)."""
        return self._kinds

    def qualities(self) -> np.ndarray:
        """(n,) array of per-minutia qualities, 0–100 (read-only)."""
        return self._qualities


def template_from_arrays(
    positions_px: Sequence[Sequence[float]],
    angles: Sequence[float],
    kinds: Sequence[int],
    qualities: Sequence[int],
    width_px: int,
    height_px: int,
    resolution_dpi: int = 500,
) -> Template:
    """Assemble a :class:`Template` from parallel arrays (pipeline helper).

    Angles are wrapped into [0, 2*pi) and qualities clipped to 0..100;
    the columns are copied, so the template never aliases the inputs.
    Raises the :class:`~repro.runtime.errors.MatcherError` the first
    invalid row's :class:`Minutia` would raise.
    """
    # Each column is a fresh array that owns its data (no view of an
    # input, no second array object over one buffer).
    pos = np.array(np.reshape(positions_px, (-1, 2)), dtype=np.float64)
    ang = np.mod(np.asarray(angles, dtype=np.float64).ravel(), 2.0 * np.pi)
    knd = np.array(np.ravel(kinds), dtype=np.int64)
    qua = np.clip(np.asarray(qualities, dtype=np.int64).ravel(), 0, 100)
    if not (len(pos) == len(ang) == len(knd) == len(qua)):
        raise MatcherError("parallel minutia arrays must have equal length")
    bad = (
        ((knd != KIND_ENDING) & (knd != KIND_BIFURCATION))
        | ~np.isfinite(pos).all(axis=1)
        | ~((ang >= 0.0) & (ang < 2.0 * np.pi + 1e-9))
    )
    if bad.any():
        # The first bad row raises exactly what its Minutia would.
        i = int(np.argmax(bad))
        Minutia(
            x=float(pos[i, 0]), y=float(pos[i, 1]), angle=float(ang[i]),
            kind=int(knd[i]), quality=int(qua[i]),
        )
    template = Template.__new__(Template)
    template._set_columns(pos, ang, knd, qua, width_px, height_px, resolution_dpi)
    return template


__all__ = [
    "Minutia",
    "Template",
    "template_from_arrays",
    "KIND_ENDING",
    "KIND_BIFURCATION",
]
