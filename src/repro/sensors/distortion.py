"""Geometric distortion models for fingerprint acquisition.

The paper attributes interoperability loss to "different arrangements of
sensing elements [that] introduce variations and distortions in the
biometric data" (Section I) and cites Ross & Nadgir's finding that the
*relative distortion* between devices is the quantity to compensate.

This module supplies the geometry toolbox:

* :class:`RigidPlacement` — how the finger lands on the platen
  (translation + rotation), removed later by the matcher's alignment;
* :class:`SmoothWarpField` — a smooth nonrigid displacement field built
  from Gaussian radial basis functions on a control grid.  Two uses:

  - each *device* owns a fixed signature field (its sensing-element
    arrangement).  Same-device comparisons share the signature, so it
    cancels; cross-device comparisons see the difference of two
    signatures — the causal mechanism of the study;
  - each *impression* draws a fresh low-magnitude elastic field
    (skin elasticity under pressure).

A rigid transform cannot absorb these fields (they vary over the pad at
a ~6 mm correlation length), which is exactly why cross-device genuine
scores drop.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..runtime.rng import derive_seed


@dataclass(frozen=True)
class RigidPlacement:
    """Finger placement on the platen: rotation then translation.

    Attributes
    ----------
    dx, dy:
        Translation, millimetres in platen coordinates.
    rotation:
        Rotation about the pad centre, radians.
    """

    dx: float
    dy: float
    rotation: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map finger-space points (n, 2) into platen space."""
        pts = np.asarray(points, dtype=np.float64)
        c, s = np.cos(self.rotation), np.sin(self.rotation)
        rot = np.array([[c, -s], [s, c]])
        return pts @ rot.T + np.array([self.dx, self.dy])

    def apply_angles(self, angles: np.ndarray) -> np.ndarray:
        """Rotate minutia directions by the placement rotation."""
        return np.mod(np.asarray(angles, dtype=np.float64) + self.rotation,
                      2.0 * np.pi)


def sample_placement(
    rng: np.random.Generator,
    translation_sigma_mm: float,
    rotation_sigma_rad: float,
) -> RigidPlacement:
    """Draw a placement; sloppier captures use larger sigmas."""
    return RigidPlacement(
        dx=float(rng.normal(0.0, translation_sigma_mm)),
        dy=float(rng.normal(0.0, translation_sigma_mm)),
        rotation=float(rng.normal(0.0, rotation_sigma_rad)),
    )


class SmoothWarpField:
    """A smooth 2-D displacement field from RBF-interpolated control vectors.

    Control points sit on a regular grid covering ``extent_mm``; each
    carries an i.i.d. Gaussian displacement vector.  The field at any
    point is the Gaussian-kernel-weighted sum of control displacements,
    normalized so the requested ``magnitude_mm`` is the field's RMS
    displacement over the extent.

    Parameters
    ----------
    seed:
        Integer seed; fields are pure functions of their parameters.
    magnitude_mm:
        Target RMS displacement magnitude.
    scale_mm:
        Correlation length (grid spacing and kernel width).
    extent_mm:
        Half-width of the covered square region.
    """

    def __init__(
        self,
        seed: int,
        magnitude_mm: float,
        scale_mm: float = 6.0,
        extent_mm: float = 24.0,
    ) -> None:
        if magnitude_mm < 0:
            raise ValueError("magnitude_mm must be non-negative")
        if scale_mm <= 0:
            raise ValueError("scale_mm must be positive")
        self.magnitude_mm = float(magnitude_mm)
        self.scale_mm = float(scale_mm)
        self.extent_mm = float(extent_mm)
        rng = np.random.Generator(np.random.PCG64(seed))
        coords = np.arange(-extent_mm, extent_mm + scale_mm / 2.0, scale_mm)
        gx, gy = np.meshgrid(coords, coords)
        self._centers = np.column_stack([gx.ravel(), gy.ravel()])
        self._vectors = rng.normal(0.0, 1.0, size=self._centers.shape)
        self._normalize()

    def replace_control_vectors(self, vectors: np.ndarray) -> None:
        """Install externally-constructed control vectors, renormalized.

        Used by :func:`device_signature_field` to give the study devices
        mutually orthogonal signatures; ``vectors`` must match the
        control-grid shape.
        """
        if vectors.shape != self._vectors.shape:
            raise ValueError(
                f"control vector shape {vectors.shape} != grid shape "
                f"{self._vectors.shape}"
            )
        self._vectors = np.array(vectors, dtype=np.float64)
        self._normalize()

    def _normalize(self) -> None:
        """Scale control vectors so the field RMS equals ``magnitude_mm``."""
        if self.magnitude_mm == 0.0:
            self._vectors = np.zeros_like(self._vectors)
            return
        probe = np.linspace(-self.extent_mm * 0.6, self.extent_mm * 0.6, 9)
        px, py = np.meshgrid(probe, probe)
        pts = np.column_stack([px.ravel(), py.ravel()])
        disp = self._raw_displacement(pts)
        rms = float(np.sqrt(np.mean(np.sum(disp**2, axis=1))))
        if rms > 0:
            self._vectors *= self.magnitude_mm / rms

    def _raw_displacement(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        # dx*dx + dy*dy is the one addition a sum over the length-2 axis
        # makes, without numpy's per-row inner loop of two elements.
        dx = np.subtract.outer(pts[:, 0], self._centers[:, 0])
        dy = np.subtract.outer(pts[:, 1], self._centers[:, 1])
        dx *= dx
        dy *= dy
        dist_sq = dx + dy
        weights = np.exp(-dist_sq / (2.0 * self.scale_mm**2))
        return weights @ self._vectors

    def displacement(self, points: np.ndarray) -> np.ndarray:
        """Displacement vectors (n, 2) at ``points`` (n, 2), millimetres."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return self._raw_displacement(pts)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Warp ``points``: ``p + displacement(p)``."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return pts + self._raw_displacement(pts)

    def local_rotation(self, points: np.ndarray, step_mm: float = 0.5) -> np.ndarray:
        """Approximate local rotation (radians) induced by the warp.

        Estimated from the curl of the displacement field by finite
        differences; used to perturb minutia *directions* consistently
        with the positional warp.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        ex = np.array([step_mm, 0.0])
        ey = np.array([0.0, step_mm])
        duy_dx = (self.displacement(pts + ex)[:, 1] - self.displacement(pts - ex)[:, 1]) / (2 * step_mm)
        dux_dy = (self.displacement(pts + ey)[:, 0] - self.displacement(pts - ey)[:, 0]) / (2 * step_mm)
        return 0.5 * (duy_dx - dux_dy)


#: Devices whose signature fields are mutually orthogonalized.
_STUDY_DEVICES = ("D0", "D1", "D2", "D3", "D4")


def _orthogonal_signature_vectors(scale_mm: float) -> dict:
    """Orthonormal control-vector sets for the five study devices.

    The sensing-element arrangements of different vendors are unrelated,
    so their systematic warps should be uncorrelated as *functions*.  A
    random draw only achieves that in expectation — an unlucky pair of
    devices can share a large field component, which would silently
    understate the interoperability effect for that pair.  Instead the
    five raw draws are QR-orthogonalized over the shared control grid,
    making every pairwise field correlation exactly zero by
    construction.
    """
    template = SmoothWarpField(seed=0, magnitude_mm=1.0, scale_mm=scale_mm)
    centers = template._centers
    n_centers = centers.shape[0]

    # Field-space sampling operator: displacement at probe points is
    # linear in the control vectors, f = W v (per component), so
    # Gram-Schmidt with field-space inner products but control-space
    # updates yields *exactly* orthogonal displacement fields.
    probe = np.linspace(-14.0, 14.0, 15)
    px, py = np.meshgrid(probe, probe)
    pts = np.column_stack([px.ravel(), py.ravel()])
    diff = pts[:, None, :] - centers[None, :, :]
    weights = np.exp(-np.sum(diff**2, axis=2) / (2.0 * scale_mm**2))

    def field_samples(vectors: np.ndarray) -> np.ndarray:
        return (weights @ vectors).ravel()

    control: dict = {}
    fields: list = []
    for device_id in _STUDY_DEVICES:
        seed = derive_seed(0x5E0501, "device-signature", device_id)
        rng = np.random.Generator(np.random.PCG64(seed))
        v = rng.normal(0.0, 1.0, size=(n_centers, 2))
        f = field_samples(v)
        for prev_v, prev_f in fields:
            coeff = float(np.dot(f, prev_f) / np.dot(prev_f, prev_f))
            v = v - coeff * prev_v
            f = f - coeff * prev_f
        fields.append((v, f))
        control[device_id] = v
    return control


_SIGNATURE_VECTOR_CACHE: dict = {}


def device_signature_field(
    device_id: str, magnitude_mm: float, scale_mm: float = 6.5
) -> SmoothWarpField:
    """The fixed systematic warp of a device's sensing-element arrangement.

    Depends only on the device identity — not on the study seed — because
    it is a property of the hardware: every impression ever taken on
    device ``device_id`` shares it.  The five study devices receive
    mutually *orthogonal* fields (see
    :func:`_orthogonal_signature_vectors`); unknown device ids fall back
    to an independent hash-seeded draw.
    """
    field = SmoothWarpField(
        seed=derive_seed(0x5E0501, "device-signature", device_id),
        magnitude_mm=magnitude_mm,
        scale_mm=scale_mm,
    )
    if device_id in _STUDY_DEVICES:
        if scale_mm not in _SIGNATURE_VECTOR_CACHE:
            _SIGNATURE_VECTOR_CACHE[scale_mm] = _orthogonal_signature_vectors(scale_mm)
        field.replace_control_vectors(_SIGNATURE_VECTOR_CACHE[scale_mm][device_id])
    return field


def relative_warp_rms(
    field_a: SmoothWarpField,
    field_b: SmoothWarpField,
    extent_mm: float = 12.0,
    n_probe: int = 13,
) -> float:
    """RMS of the displacement *difference* between two fields.

    This is the quantity Ross & Nadgir's calibration model targets; the
    ablation benchmark uses it to show cross-device genuine-score loss
    scales with it.
    """
    probe = np.linspace(-extent_mm, extent_mm, n_probe)
    px, py = np.meshgrid(probe, probe)
    pts = np.column_stack([px.ravel(), py.ravel()])
    diff = field_a.displacement(pts) - field_b.displacement(pts)
    return float(np.sqrt(np.mean(np.sum(diff**2, axis=1))))


__all__ = [
    "RigidPlacement",
    "sample_placement",
    "SmoothWarpField",
    "device_signature_field",
    "relative_warp_rms",
]
