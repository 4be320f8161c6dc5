"""Thin-plate-spline inter-sensor compensation (Ross & Nadgir).

Section II of the paper summarizes Ross & Nadgir's calibration model:
"an inter-sensor compensation model which computes the relative
distortion between images acquired using different devices", modeled by
"a thin-plate spline in which parameters rely on control points".

This module implements exactly that pipeline:

1. **learn** — given matched minutia pairs between a source device and a
   target device (obtained from genuine cross-device matches of a
   training cohort), fit a 2-D thin-plate spline mapping source
   coordinates to target coordinates;
2. **apply** — warp a probe template's minutiae through the spline before
   matching, removing the systematic inter-device distortion while
   leaving per-impression elastic noise untouched.

The TPS solve is the standard augmented linear system with kernel
``U(r) = r^2 log r`` and an optional regularization that keeps the
mapping smooth when control points are noisy (they always are — they
come from matcher correspondences, not hand labeling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..matcher.types import Template, template_from_arrays
from ..runtime.errors import CalibrationError

#: Minimum control points for a stable 2-D TPS fit.
MIN_CONTROL_POINTS = 8


def _tps_kernel(r_sq: np.ndarray) -> np.ndarray:
    """U(r) = r^2 log r, evaluated safely at r = 0 (limit 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * r_sq * np.log(r_sq)
    return np.where(r_sq > 0.0, out, 0.0)


@dataclass(frozen=True)
class ThinPlateSpline:
    """A fitted 2-D thin-plate spline ``f: R^2 -> R^2``.

    Attributes
    ----------
    control_points:
        (n, 2) source control points.
    weights:
        (n + 3, 2) kernel weights plus the affine part, per output
        dimension.
    """

    control_points: np.ndarray
    weights: np.ndarray

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Map (m, 2) points through the spline."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        diff = pts[:, None, :] - self.control_points[None, :, :]
        r_sq = np.sum(diff**2, axis=2)
        kernel = _tps_kernel(r_sq)
        design = np.hstack([kernel, np.ones((len(pts), 1)), pts])
        return design @ self.weights

    def bending_energy_proxy(self, extent_mm: float = 12.0, n_probe: int = 9) -> float:
        """RMS displacement the spline applies over a probe grid.

        A cheap magnitude diagnostic: zero for the identity mapping,
        growing with the inter-device distortion the spline models.
        """
        grid = np.linspace(-extent_mm, extent_mm, n_probe)
        gx, gy = np.meshgrid(grid, grid)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        moved = self.transform(pts)
        return float(np.sqrt(np.mean(np.sum((moved - pts) ** 2, axis=1))))


def fit_tps(
    source_points: np.ndarray,
    target_points: np.ndarray,
    regularization: float = 0.5,
) -> ThinPlateSpline:
    """Fit a TPS mapping ``source -> target``.

    Parameters
    ----------
    source_points, target_points:
        Matched (n, 2) coordinate arrays, n >= :data:`MIN_CONTROL_POINTS`.
    regularization:
        Added to the kernel diagonal; trades exact interpolation for
        smoothness under noisy correspondences.
    """
    src = np.asarray(source_points, dtype=np.float64)
    dst = np.asarray(target_points, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise CalibrationError(
            f"control point arrays must both be (n, 2); got {src.shape} vs {dst.shape}"
        )
    n = src.shape[0]
    if n < MIN_CONTROL_POINTS:
        raise CalibrationError(
            f"TPS needs >= {MIN_CONTROL_POINTS} control points, got {n}"
        )

    diff = src[:, None, :] - src[None, :, :]
    kernel = _tps_kernel(np.sum(diff**2, axis=2))
    kernel += regularization * np.eye(n)

    ones = np.ones((n, 1))
    p = np.hstack([ones, src])
    system = np.zeros((n + 3, n + 3))
    system[:n, :n] = kernel
    system[:n, n:] = p
    system[n:, :n] = p.T

    rhs = np.zeros((n + 3, 2))
    rhs[:n] = dst
    try:
        weights = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise CalibrationError(f"TPS system is singular: {exc}") from exc
    return ThinPlateSpline(control_points=src.copy(), weights=weights)


def control_points_from_matches(
    matcher,
    probe_templates: Sequence[Template],
    gallery_templates: Sequence[Template],
    max_pairs: int = 400,
) -> Tuple[np.ndarray, np.ndarray]:
    """Harvest TPS control points from genuine cross-device matches.

    For each genuine (probe, gallery) template pair of a training
    cohort, run the matcher, rigidly align the probe, and collect the
    matched minutia coordinate pairs.  The *residual* (post-rigid)
    displacement field is exactly the relative inter-device distortion
    Ross & Nadgir's model targets.
    """
    sources: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    total = 0
    for probe, gallery in zip(probe_templates, gallery_templates):
        result = matcher.match_detailed(probe, gallery)
        if result.pairing is None or result.transform is None:
            continue
        if result.pairing.n_matched == 0:
            continue
        moved = result.transform.apply(probe.positions_mm())
        pairs = result.pairing.pairs
        sources.append(moved[pairs[:, 0]])
        targets.append(gallery.positions_mm()[pairs[:, 1]])
        total += len(pairs)
        if total >= max_pairs:
            break
    if not sources:
        raise CalibrationError("no genuine matches produced control points")
    return np.vstack(sources)[:max_pairs], np.vstack(targets)[:max_pairs]


def apply_tps_to_template(template: Template, spline: ThinPlateSpline) -> Template:
    """Warp a template's minutiae through a fitted spline (mm domain)."""
    if len(template) == 0:
        return template
    moved_mm = spline.transform(template.positions_mm())
    moved_px = moved_mm * template.pixels_per_mm
    return template_from_arrays(
        positions_px=moved_px,
        angles=template.angles(),
        kinds=template.kinds(),
        qualities=template.qualities(),
        width_px=template.width_px,
        height_px=template.height_px,
        resolution_dpi=template.resolution_dpi,
    )


__all__ = [
    "ThinPlateSpline",
    "fit_tps",
    "control_points_from_matches",
    "apply_tps_to_template",
    "MIN_CONTROL_POINTS",
]
