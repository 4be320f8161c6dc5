"""The optimised kernels against their reference formulations, bit for bit.

``reference_kernels`` holds the plain broadcast versions of the
descriptor-similarity kernel, the warp field's displacement and
``template_from_arrays``.  Every comparison here is exact: equal shapes,
dtypes and bytes, not approximate closeness.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matcher.descriptors import (
    AZIMUTH_TOL_RAD,
    DISTANCE_TOL_MM,
    NEIGHBOURS,
    RELATIVE_TOL_RAD,
    _descriptor_set,
    build_descriptors,
    similarity_matrix,
)
from repro.matcher.types import template_from_arrays
from repro.sensors.distortion import SmoothWarpField, device_signature_field

from . import reference_kernels as ref


def assert_bit_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def tiny_templates(tiny_collection):
    """Every right-index template of the first four subjects, all devices."""
    return [
        impression.template
        for impression in tiny_collection
        if impression.subject_id < 4 and impression.finger_label == "right_index"
    ]


class TestSimilarityOnStudyTemplates:
    def test_every_pair_matches_reference(self, tiny_templates):
        sets = [build_descriptors(t) for t in tiny_templates]
        assert len(sets) >= 20
        for a, b in itertools.product(sets[:12], sets):
            assert_bit_identical(similarity_matrix(a, b), ref.similarity_matrix(a, b))


# Angle values that put raw differences near +-pi, at exactly 2pi - tol
# and at exactly tol, where the wrap-free test switches sides.
_ANGLES = [
    np.pi, -np.pi + 1e-12, np.nextafter(np.pi, 0.0), 0.0,
    np.pi - AZIMUTH_TOL_RAD, -np.pi + AZIMUTH_TOL_RAD,
    np.pi - RELATIVE_TOL_RAD, -np.pi + RELATIVE_TOL_RAD,
    AZIMUTH_TOL_RAD, RELATIVE_TOL_RAD, -AZIMUTH_TOL_RAD, -RELATIVE_TOL_RAD,
    2.0 * np.pi - AZIMUTH_TOL_RAD - np.pi, 2.0 * np.pi - RELATIVE_TOL_RAD - np.pi,
]
# Distances whose differences land exactly on the tolerance.
_DISTANCES = [0.0, DISTANCE_TOL_MM, 2.0 * DISTANCE_TOL_MM, 1.0, 1.0 + DISTANCE_TOL_MM]

angle_values = st.one_of(
    st.sampled_from(_ANGLES),
    st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False),
)
distance_values = st.one_of(
    st.sampled_from(_DISTANCES),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
)


@st.composite
def descriptor_sets(draw):
    """A descriptor set of 0-6 minutiae, each with 0-K real entries."""
    n = draw(st.integers(min_value=0, max_value=6))
    entries = np.full((n, NEIGHBOURS, 3), np.inf)
    for i in range(n):
        real = draw(st.integers(min_value=0, max_value=NEIGHBOURS))
        for k in range(real):
            entries[i, k] = (
                draw(distance_values), draw(angle_values), draw(angle_values)
            )
    return _descriptor_set(entries, n)


class TestSimilarityOnDrawnDescriptors:
    @settings(max_examples=300, deadline=None)
    @given(descriptor_sets(), descriptor_sets())
    def test_matches_reference(self, a, b):
        assert_bit_identical(similarity_matrix(a, b), ref.similarity_matrix(a, b))

    @settings(max_examples=100, deadline=None)
    @given(descriptor_sets())
    def test_self_similarity_matches_reference(self, a):
        assert_bit_identical(similarity_matrix(a, a), ref.similarity_matrix(a, a))


class TestRawDisplacement:
    @pytest.mark.parametrize("device", ["D0", "D3", "unknown"])
    def test_signature_fields(self, device, rng):
        field = device_signature_field(device, magnitude_mm=0.4)
        points = rng.uniform(-20.0, 20.0, size=(57, 2))
        assert_bit_identical(
            field._raw_displacement(points), ref.raw_displacement(field, points)
        )

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=40),
    )
    def test_random_fields(self, seed, n_points):
        field = SmoothWarpField(seed=seed, magnitude_mm=0.7, scale_mm=5.0)
        points = np.random.default_rng(seed).normal(0.0, 12.0, size=(n_points, 2))
        assert_bit_identical(
            field._raw_displacement(points), ref.raw_displacement(field, points)
        )


class TestTemplateFromArrays:
    def test_study_templates_round_trip(self, tiny_templates):
        for template in tiny_templates:
            args = (
                template.positions_px(), template.angles(), template.kinds(),
                template.qualities(), template.width_px, template.height_px,
            )
            assert template_from_arrays(*args) == ref.template_from_arrays(*args)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=30))
    def test_out_of_range_angles_and_qualities(self, seed, n):
        gen = np.random.default_rng(seed)
        args = (
            gen.uniform(0.0, 500.0, size=(n, 2)),
            gen.uniform(-20.0, 20.0, size=n),
            gen.integers(1, 3, size=n),
            gen.integers(-50, 150, size=n),
            500, 500,
        )
        got = template_from_arrays(*args)
        assert got == ref.template_from_arrays(*args)
        for minutia in got.minutiae:
            assert type(minutia.x) is float and type(minutia.angle) is float
            assert type(minutia.quality) is int and type(minutia.kind) is int
