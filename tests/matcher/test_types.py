"""Template and minutia datatypes."""

import numpy as np
import pytest

from repro.matcher.types import (
    KIND_BIFURCATION,
    KIND_ENDING,
    Minutia,
    Template,
    template_from_arrays,
)
from repro.runtime.errors import MatcherError


def _make_template(n=3):
    minutiae = tuple(
        Minutia(x=10.0 * i, y=5.0 * i, angle=0.5 * i, kind=KIND_ENDING, quality=50)
        for i in range(n)
    )
    return Template(minutiae=minutiae, width_px=800, height_px=750)


class TestMinutia:
    def test_valid(self):
        m = Minutia(1.0, 2.0, 3.0, KIND_BIFURCATION, 80)
        assert m.kind_name == "bifurcation"

    def test_bad_kind(self):
        with pytest.raises(MatcherError):
            Minutia(0, 0, 0, 9, 50)

    def test_bad_quality(self):
        with pytest.raises(MatcherError):
            Minutia(0, 0, 0, KIND_ENDING, 150)

    def test_non_finite_position(self):
        with pytest.raises(MatcherError):
            Minutia(float("nan"), 0, 0, KIND_ENDING, 50)

    def test_angle_out_of_range(self):
        with pytest.raises(MatcherError):
            Minutia(0, 0, 7.0, KIND_ENDING, 50)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_coordinate_rejected(self, bad, axis):
        coords = {"x": 1.0, "y": 2.0}
        coords[axis] = bad
        with pytest.raises(MatcherError, match="finite"):
            Minutia(angle=0.5, kind=KIND_ENDING, quality=50, **coords)
        coords[axis] = np.float64(bad)
        with pytest.raises(MatcherError, match="finite"):
            Minutia(angle=0.5, kind=KIND_ENDING, quality=50, **coords)

    def test_numpy_scalar_inputs_accepted(self):
        m = Minutia(
            np.float64(12.5), np.float64(-3.0), np.float64(6.28),
            KIND_ENDING, np.int64(100),
        )
        assert (m.x, m.y, m.angle, m.quality) == (12.5, -3.0, 6.28, 100)

    @pytest.mark.parametrize("angle", [-1e-12, 2.0 * np.pi + 1e-8, 7.0])
    def test_angle_bounds(self, angle):
        with pytest.raises(MatcherError, match="angle"):
            Minutia(0.0, 0.0, angle, KIND_ENDING, 50)
        with pytest.raises(MatcherError, match="angle"):
            Minutia(0.0, 0.0, np.float64(angle), KIND_ENDING, 50)

    def test_angle_tolerance_above_two_pi_accepted(self):
        assert Minutia(0.0, 0.0, 2.0 * np.pi, KIND_ENDING, 50).angle > 6.28

    @pytest.mark.parametrize("quality", [-1, 101, np.int64(101)])
    def test_quality_bounds(self, quality):
        with pytest.raises(MatcherError, match="quality"):
            Minutia(0.0, 0.0, 0.0, KIND_ENDING, quality)


class TestTemplate:
    def test_len(self):
        assert len(_make_template(4)) == 4

    def test_positions_shapes(self):
        t = _make_template(3)
        assert t.positions_px().shape == (3, 2)
        assert t.positions_mm().shape == (3, 2)
        assert t.angles().shape == (3,)
        assert t.kinds().shape == (3,)
        assert t.qualities().shape == (3,)

    def test_mm_conversion_at_500dpi(self):
        t = _make_template(2)
        ratio = t.positions_px()[1, 0] / t.positions_mm()[1, 0]
        assert ratio == pytest.approx(500 / 25.4)

    def test_empty_template_arrays(self):
        t = Template(minutiae=(), width_px=10, height_px=10)
        assert t.positions_px().shape == (0, 2)
        assert t.angles().shape == (0,)

    def test_bad_dimensions(self):
        with pytest.raises(MatcherError):
            Template(minutiae=(), width_px=0, height_px=10)

    def test_bad_resolution(self):
        with pytest.raises(MatcherError):
            Template(minutiae=(), width_px=10, height_px=10, resolution_dpi=0)


class TestFromArrays:
    def test_roundtrip(self):
        t = template_from_arrays(
            positions_px=[[1.0, 2.0], [3.0, 4.0]],
            angles=[0.1, 6.5],  # second wraps past 2*pi
            kinds=[KIND_ENDING, KIND_BIFURCATION],
            qualities=[40, 300],  # clipped to 100
            width_px=100,
            height_px=100,
        )
        assert len(t) == 2
        assert 0 <= t.minutiae[1].angle < 2 * np.pi
        assert t.minutiae[1].quality == 100

    def test_length_mismatch(self):
        with pytest.raises(MatcherError):
            template_from_arrays(
                positions_px=[[1.0, 2.0]],
                angles=[0.1, 0.2],
                kinds=[1],
                qualities=[50],
                width_px=10,
                height_px=10,
            )
