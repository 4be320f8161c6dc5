"""The prefilter against its plain formulations, bit for bit.

``descriptor_vector`` must return the frozen reference's bytes on more
than a thousand templates, including the ones with 0, 1 and 2 minutiae.

The index ranks rows through cached norms and one matrix-vector
product, and recomputes exact distances only near the K-th place.
These tests hold it to :mod:`reference_prefilter`: the same keys, the
same ranks and the same distance floats, on indexes built by
``from_items`` and by add/replace/remove histories, with duplicate rows
and rows one ulp apart, for every K from 1 to n + 2.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prefilter import DESCRIPTOR_DIM, PrefilterIndex, descriptor_vector
from repro.matcher.types import template_from_arrays

from . import reference_prefilter as ref
from .test_prefilter import _device_view, _random_template

#: Gentle enrollment noise, as the serving benchmarks enroll galleries.
ENROLL_NOISE = {"drop": 0.05, "jitter_px": 0.5, "spurious": 1}

_KEYS = ["k07", "a", "zz", "b", "m-1", "m-0", "q", "c3", "c10", "x", "e", "d"]


def _fingerprint(candidates):
    """Keys, ranks and the exact bits of every distance."""
    return [(c.key, c.rank, c.distance.hex()) for c in candidates]


def _assert_matches_oracle(index, rows, probe, ks):
    assert sorted(index.keys()) == sorted(rows)
    for k in ks:
        assert _fingerprint(index.top_k(probe, k)) == _fingerprint(
            ref.top_k(rows, probe, k)
        ), f"k={k}"


@st.composite
def histories(draw):
    """A row pool with duplicates and ulp neighbours, an op history over
    it, and a probe that is random, a pool row, or a pool row's ulp
    neighbour."""
    dim = draw(st.sampled_from([1, 3, 17, DESCRIPTOR_DIM]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 3.0, 1e3]))
    bases = [rng.normal(size=dim) * scale for _ in range(draw(st.integers(1, 4)))]

    def row(base, steps, coord):
        vector = bases[base].copy()
        for _ in range(steps):
            vector[coord % dim] = np.nextafter(vector[coord % dim], np.inf)
        return vector

    row_spec = st.tuples(
        st.integers(0, len(bases) - 1), st.integers(0, 2), st.integers(0, dim - 1)
    )
    initial = draw(st.dictionaries(st.sampled_from(_KEYS), row_spec, max_size=6))
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.sampled_from(_KEYS), row_spec),
            st.tuples(st.just("remove"), st.sampled_from(_KEYS), st.none()),
        ),
        max_size=16,
    ))
    probe_kind = draw(st.sampled_from(["random", "row", "ulp"]))
    probe_spec = draw(row_spec)
    if probe_kind == "random":
        probe = rng.normal(size=dim) * scale
    else:
        base, steps, coord = probe_spec
        probe = row(base, steps if probe_kind == "ulp" else 0, coord)
    return dim, {k: row(*spec) for k, spec in initial.items()}, [
        (op, key, None if spec is None else row(*spec)) for op, key, spec in ops
    ], probe


class TestTopKOracle:
    @settings(max_examples=150, deadline=None)
    @given(histories())
    def test_history_matches_oracle_for_every_k(self, history):
        dim, initial, ops, probe = history
        index = PrefilterIndex.from_items(initial, dim=dim)
        rows = dict(initial)
        for op, key, vector in ops:
            if op == "add":
                index.add(key, vector)
                rows[key] = vector
            elif key in rows:
                index.remove(key)
                del rows[key]
        _assert_matches_oracle(index, rows, probe, range(1, len(rows) + 3))

    def test_many_exact_duplicates_around_the_kth_place(self):
        rng = np.random.default_rng(7)
        near, far = rng.normal(size=DESCRIPTOR_DIM), rng.normal(size=DESCRIPTOR_DIM)
        rows = {f"dup-{i:02d}": near for i in range(40)}
        rows.update({f"far-{i:02d}": far + i for i in range(40)})
        index = PrefilterIndex()
        for key in sorted(rows, reverse=True):
            index.add(key, rows[key])
        _assert_matches_oracle(index, rows, near + 1e-3, (1, 8, 39, 40, 41, 80, 82))


class TestPerfbenchStyleGallery:
    """The shortlists of a 256-entry two-device gallery are unchanged."""

    def test_shortlists_match_oracle(self):
        rng = np.random.default_rng(20130624)
        fingers = [_random_template(rng) for _ in range(128)]
        rows = {}
        for i, finger in enumerate(fingers):
            for device in ("D0", "D1"):
                rows[f"{device}/id-{i:04d}"] = descriptor_vector(
                    _device_view(finger, rng, **ENROLL_NOISE)
                )
        index = PrefilterIndex.from_items(rows)
        for identity in rng.choice(len(fingers), size=12, replace=False):
            probe = descriptor_vector(_device_view(fingers[identity], rng))
            _assert_matches_oracle(index, rows, probe, (1, 8, 32, 256, 258))


class TestDescriptorOracle:
    """``descriptor_vector`` returns the frozen reference's bytes."""

    def test_bytes_match_reference(self):
        rng = np.random.default_rng(378)
        templates = [
            _random_template(rng, n_min=n, n_max=n)
            for n in (0, 0, 1, 1, 2, 2, 3, 4)
        ]
        templates += [_random_template(rng, n_min=0, n_max=80) for _ in range(900)]
        fingers = [_random_template(rng) for _ in range(64)]
        templates += [_device_view(f, rng) for f in fingers]
        templates += [_device_view(f, rng, **ENROLL_NOISE) for f in fingers]
        # Coincident minutiae: tied nearest distances, zero spacing.
        twin = _random_template(rng, n_min=10, n_max=10)
        templates.append(template_from_arrays(
            positions_px=np.repeat(twin.positions_px(), 2, axis=0),
            angles=np.repeat(twin.angles(), 2),
            kinds=np.repeat(twin.kinds(), 2),
            qualities=np.repeat(twin.qualities(), 2),
            width_px=300, height_px=400,
        ))
        assert len(templates) >= 1000
        for template in templates:
            assert (
                descriptor_vector(template).tobytes()
                == ref.descriptor_vector(template).tobytes()
            ), len(template)
