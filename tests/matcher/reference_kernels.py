"""Reference implementations the optimised kernels must reproduce bit for bit.

These are the straightforward broadcast formulations the matcher and the
sensor models used before their hot paths were rewritten for fewer numpy
calls.  They are kept only as test oracles.
"""

from __future__ import annotations

import numpy as np

from repro.matcher.descriptors import (
    AZIMUTH_TOL_RAD,
    DISTANCE_TOL_MM,
    RELATIVE_TOL_RAD,
    DescriptorSet,
)
from repro.matcher.types import Minutia, Template


def similarity_matrix(a: DescriptorSet, b: DescriptorSet) -> np.ndarray:
    """Descriptor similarity over the 4-D ``(na, nb, K, K)`` broadcast."""
    if a.n == 0 or b.n == 0:
        return np.zeros((a.n, b.n), dtype=np.float64)
    cha = np.ascontiguousarray(a.entries.transpose(2, 0, 1))
    chb = np.ascontiguousarray(b.entries.transpose(2, 0, 1))

    scratch = cha[0][:, None, :, None] - chb[0][None, :, None, :]
    np.abs(scratch, out=scratch)
    compatible = scratch <= DISTANCE_TOL_MM
    for channel, tolerance in ((1, AZIMUTH_TOL_RAD), (2, RELATIVE_TOL_RAD)):
        np.subtract(
            cha[channel][:, None, :, None],
            chb[channel][None, :, None, :],
            out=scratch,
        )
        np.abs(scratch, out=scratch)
        within = scratch <= tolerance
        within |= scratch >= (2.0 * np.pi - tolerance)
        compatible &= within

    row_hits = compatible.any(axis=3).sum(axis=2)
    col_hits = compatible.any(axis=2).sum(axis=2)
    matched = np.minimum(row_hits, col_hits).astype(np.float64)

    fca = np.sum(np.isfinite(a.entries[:, :, 0]), axis=1)
    fcb = np.sum(np.isfinite(b.entries[:, :, 0]), axis=1)
    k_effective = np.minimum(fca[:, None], fcb[None, :])
    with np.errstate(invalid="ignore", divide="ignore"):
        sim = np.where(k_effective > 0, matched / np.maximum(k_effective, 1), 0.0)
    return np.clip(sim, 0.0, 1.0)


def raw_displacement(field, points: np.ndarray) -> np.ndarray:
    """``SmoothWarpField._raw_displacement`` over a ``(n, m, 2)`` difference."""
    pts = np.asarray(points, dtype=np.float64)
    diff = pts[:, None, :] - field._centers[None, :, :]
    dist_sq = np.sum(diff**2, axis=2)
    weights = np.exp(-dist_sq / (2.0 * field.scale_mm**2))
    return weights @ field._vectors


def template_from_arrays(
    positions_px, angles, kinds, qualities, width_px, height_px,
    resolution_dpi=500,
) -> Template:
    """``template_from_arrays`` with per-minutia numpy-scalar conversions."""
    pos = np.asarray(positions_px, dtype=np.float64).reshape(-1, 2)
    ang = np.asarray(angles, dtype=np.float64).ravel()
    knd = np.asarray(kinds, dtype=np.int64).ravel()
    qua = np.asarray(qualities, dtype=np.int64).ravel()
    minutiae = tuple(
        Minutia(
            x=float(pos[i, 0]),
            y=float(pos[i, 1]),
            angle=float(np.mod(ang[i], 2.0 * np.pi)),
            kind=int(knd[i]),
            quality=int(np.clip(qua[i], 0, 100)),
        )
        for i in range(len(pos))
    )
    return Template(
        minutiae=minutiae,
        width_px=width_px,
        height_px=height_px,
        resolution_dpi=resolution_dpi,
    )
