"""``PrefilterIndex.top_k`` against its plain formulation, bit for bit.

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
