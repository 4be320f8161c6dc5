"""Template and minutia datatypes."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.incits378 import decode, encode
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


#: Minutia rows the INCITS 378 wire form carries exactly.
wire_rows = st.lists(
    st.tuples(
        st.integers(0, 2**14 - 1).map(float),
        st.integers(0, 2**14 - 1).map(float),
        st.integers(0, 255).map(lambda u: u * (2 * np.pi / 256)),
        st.sampled_from([KIND_ENDING, KIND_BIFURCATION]),
        st.integers(0, 100),
    ),
    max_size=40,
)


def _from_rows(rows):
    return template_from_arrays(
        positions_px=[(x, y) for x, y, _, _, _ in rows],
        angles=[r[2] for r in rows],
        kinds=[r[3] for r in rows],
        qualities=[r[4] for r in rows],
        width_px=800,
        height_px=750,
    )


def _columns(template):
    return (
        template.positions_px(), template.angles(), template.kinds(),
        template.qualities(),
    )


class TestConstructorsAgree:
    """Arrays, Minutia tuples and the INCITS decoder build one template."""

    @given(wire_rows)
    @settings(max_examples=80, deadline=None)
    def test_same_template_three_ways(self, rows):
        from_arrays = _from_rows(rows)
        from_minutiae = Template(
            minutiae=tuple(Minutia(*row) for row in rows),
            width_px=800,
            height_px=750,
        )
        decoded, __ = decode(encode(from_minutiae))
        for other in (from_minutiae, decoded):
            assert other == from_arrays
            assert hash(other) == hash(from_arrays)
            assert other.content_key() == from_arrays.content_key()
            assert other.minutiae == from_arrays.minutiae
            assert len(other) == len(rows)
            for got, want in zip(_columns(other), _columns(from_arrays)):
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                other.positions_mm(), from_arrays.positions_mm()
            )
        assert from_arrays.minutiae == tuple(Minutia(*row) for row in rows)

    @given(
        wire_rows.filter(bool),
        st.data(),
        st.sampled_from(
            [("x", np.nan), ("y", np.inf), ("x", -np.inf), ("kind", 0),
             ("kind", 3), ("kind", -1), ("angle", np.nan)]
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_errors(self, rows, data, fault):
        i = data.draw(st.integers(0, len(rows) - 1))
        field, value = fault
        row = list(rows[i])
        row[("x", "y", "angle", "kind").index(field)] = value
        rows = rows[:i] + [tuple(row)] + rows[i + 1:]
        with pytest.raises(MatcherError) as from_minutia:
            Template(
                minutiae=tuple(Minutia(*r) for r in rows),
                width_px=800, height_px=750,
            )
        with pytest.raises(MatcherError) as from_arrays:
            _from_rows(rows)
        assert str(from_arrays.value) == str(from_minutia.value)


class TestArrayBackedTemplate:
    def _template(self):
        return _from_rows([(1.5, 2.0, 0.5, KIND_ENDING, 40),
                           (30.0, 4.0, 3.0, KIND_BIFURCATION, 90)])

    def test_columns_are_read_only(self):
        t = self._template()
        for column in _columns(t):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_columns_do_not_alias_inputs(self):
        positions = np.array([[1.0, 2.0], [3.0, 4.0]])
        kinds = np.array([KIND_ENDING, KIND_ENDING])
        t = template_from_arrays(positions, [0.1, 0.2], kinds, [50, 50], 10, 10)
        positions[0, 0] = 99.0
        kinds[0] = KIND_BIFURCATION
        assert t.positions_px()[0, 0] == 1.0
        assert t.kinds()[0] == KIND_ENDING

    def test_pickle_round_trip(self):
        t = self._template()
        key = t.content_key()
        clone = pickle.loads(pickle.dumps(t))
        assert clone == t and hash(clone) == hash(t)
        assert clone.content_key() == key == self._template().content_key()
        for column in _columns(clone):
            assert not column.flags.writeable

    def test_dataclass_replace_and_fields(self):
        t = self._template()
        assert [f.name for f in dataclasses.fields(t)] == [
            "minutiae", "width_px", "height_px", "resolution_dpi"
        ]
        copy = dataclasses.replace(t)
        assert copy == t and copy is not t
        shorter = dataclasses.replace(t, minutiae=t.minutiae[:1], width_px=20)
        assert len(shorter) == 1 and shorter.width_px == 20
        assert shorter.minutiae == t.minutiae[:1]

    def test_negative_zero_equals_zero(self):
        a = template_from_arrays([[0.0, 1.0]], [0.0], [1], [50], 10, 10)
        b = template_from_arrays([[-0.0, 1.0]], [0.0], [1], [50], 10, 10)
        assert a == b
        assert hash(a) == hash(b) and a.content_key() == b.content_key()

    def test_content_key_tells_templates_apart(self):
        t = self._template()
        moved = template_from_arrays(
            t.positions_px() + [[0.0, 0.0], [0.0, 1e-9]], t.angles(), t.kinds(),
            t.qualities(), 800, 750,
        )
        assert moved != t
        assert moved.content_key() != t.content_key()
        assert t != self._template().__class__(
            minutiae=t.minutiae, width_px=801, height_px=750
        )
