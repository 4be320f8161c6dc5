"""Descriptor prefilter: vector invariances, index vs brute force, parity.

The load-bearing property for the two-stage ``/identify`` path is at
the bottom: against a seeded 500+-key multi-device gallery, two-stage
top-1 must agree with the exhaustive oracle — the prefilter may only
change *how much* the exact matcher scores, never *what wins*.
"""

import numpy as np
import pytest

from repro.core.identification import TwoStageIdentifier, rank_candidates
from repro.core.prefilter import (
    DESCRIPTOR_DIM,
    PrefilterCandidate,
    PrefilterIndex,
    descriptor_vector,
    merge_shard_candidates,
)
from repro.matcher.types import template_from_arrays
from repro.runtime.errors import ConfigurationError

FINGER = "right_index"


def _random_template(rng, n_min=25, n_max=60):
    """A synthetic template with plausible minutia statistics."""
    n = int(rng.integers(n_min, n_max + 1))
    return template_from_arrays(
        positions_px=rng.uniform((30.0, 30.0), (270.0, 370.0), size=(n, 2)),
        angles=rng.uniform(0.0, 2.0 * np.pi, size=n),
        kinds=rng.choice((1, 2), size=n, p=(0.6, 0.4)),
        qualities=rng.integers(40, 100, size=n),
        width_px=300,
        height_px=400,
    )


def _device_view(template, rng, drop=0.15, jitter_px=1.5, spurious=3):
    """Re-capture the same finger on a 'different device': new pose,
    placement jitter, missed and spurious minutiae."""
    positions = template.positions_px()
    angles = template.angles()
    kinds = template.kinds()
    qualities = template.qualities()

    theta = float(rng.uniform(-0.4, 0.4))
    rotation = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    center = positions.mean(axis=0)
    positions = (positions - center) @ rotation.T + center
    positions = positions + rng.uniform(-25.0, 25.0, size=2)
    positions = positions + rng.normal(0.0, jitter_px, size=positions.shape)
    angles = angles + theta

    keep = rng.random(len(positions)) > drop
    if keep.sum() < 8:
        keep[:] = True
    positions, angles = positions[keep], angles[keep]
    kinds, qualities = kinds[keep], qualities[keep]

    n_extra = int(rng.integers(0, spurious + 1))
    if n_extra:
        positions = np.vstack(
            [positions, rng.uniform((30.0, 30.0), (270.0, 370.0), (n_extra, 2))]
        )
        angles = np.concatenate([angles, rng.uniform(0.0, 2 * np.pi, n_extra)])
        kinds = np.concatenate([kinds, rng.choice((1, 2), n_extra)])
        qualities = np.concatenate([qualities, rng.integers(40, 100, n_extra)])

    return template_from_arrays(
        positions_px=positions,
        angles=angles,
        kinds=kinds,
        qualities=qualities,
        width_px=300,
        height_px=400,
    )


class TestDescriptorVector:
    def test_shape_dtype_and_finiteness(self, rng):
        vector = descriptor_vector(_random_template(rng))
        assert vector.shape == (DESCRIPTOR_DIM,)
        assert vector.dtype == np.float64
        assert np.isfinite(vector).all()

    def test_deterministic(self, rng):
        template = _random_template(rng)
        np.testing.assert_array_equal(
            descriptor_vector(template), descriptor_vector(template)
        )

    def test_sparse_template_still_finite(self):
        tiny = template_from_arrays(
            positions_px=[[10.0, 10.0], [40.0, 12.0], [11.0, 46.0], [75.0, 75.0]],
            angles=[0.1, 1.0, 2.0, 3.0],
            kinds=[1, 2, 1, 2],
            qualities=[10, 12, 9, 11],
            width_px=300,
            height_px=400,
        )
        vector = descriptor_vector(tiny)
        assert vector.shape == (DESCRIPTOR_DIM,)
        assert np.isfinite(vector).all()

    def test_structure_histogram_is_pose_invariant(self, rng):
        # The decisive property for cross-device recall: rotating and
        # translating the capture must not move the bag-of-structures
        # half of the descriptor (local distances and relative angles
        # are pose-free by construction).
        template = _random_template(rng)
        positions = template.positions_px()
        theta = 0.7
        rotation = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        moved = template_from_arrays(
            positions_px=(positions - positions.mean(0)) @ rotation.T
            + positions.mean(0)
            + np.array([17.0, -23.0]),
            angles=template.angles() + theta,
            kinds=template.kinds(),
            qualities=template.qualities(),
            width_px=300,
            height_px=400,
        )
        bag = descriptor_vector(template)[:512]
        bag_moved = descriptor_vector(moved)[:512]
        np.testing.assert_allclose(bag_moved, bag, atol=1e-6)

    def test_different_fingers_are_far_apart(self, rng):
        a = descriptor_vector(_random_template(rng))
        b = descriptor_vector(_random_template(rng))
        same = np.linalg.norm(a - a)
        other = np.linalg.norm(a - b)
        assert other > 0.0 and same == 0.0


class TestPrefilterIndex:
    def _vectors(self, rng, n):
        return {f"id-{i:03d}": rng.normal(size=DESCRIPTOR_DIM) for i in range(n)}

    def test_top_k_matches_brute_force(self, rng):
        vectors = self._vectors(rng, 50)
        index = PrefilterIndex.from_items(vectors)
        probe = rng.normal(size=DESCRIPTOR_DIM)
        got = index.top_k(probe, 7)
        expected = sorted(
            (float(np.sum((v - probe) ** 2)), key) for key, v in vectors.items()
        )[:7]
        assert [c.key for c in got] == [key for _, key in expected]
        assert [c.rank for c in got] == list(range(1, 8))
        for candidate, (distance_sq, _) in zip(got, expected):
            assert candidate.distance == pytest.approx(np.sqrt(distance_sq))

    def test_k_larger_than_index_returns_everything(self, rng):
        vectors = self._vectors(rng, 5)
        index = PrefilterIndex.from_items(vectors)
        got = index.top_k(rng.normal(size=DESCRIPTOR_DIM), 100)
        assert sorted(c.key for c in got) == sorted(vectors)

    def test_add_replaces_existing_key(self, rng):
        index = PrefilterIndex(dim=DESCRIPTOR_DIM)
        index.add("dup", np.zeros(DESCRIPTOR_DIM))
        replacement = np.ones(DESCRIPTOR_DIM)
        index.add("dup", replacement)
        assert len(index) == 1
        np.testing.assert_array_equal(index.matrix()[0], replacement)

    def test_remove_keeps_search_correct(self, rng):
        vectors = self._vectors(rng, 20)
        index = PrefilterIndex.from_items(vectors)
        victim = "id-007"
        index.remove(victim)
        del vectors[victim]
        probe = rng.normal(size=DESCRIPTOR_DIM)
        got = [c.key for c in index.top_k(probe, 5)]
        expected = [
            key
            for _, key in sorted(
                (float(np.sum((v - probe) ** 2)), key)
                for key, v in vectors.items()
            )[:5]
        ]
        assert got == expected

    def test_matrix_rows_follow_sorted_keys(self, rng):
        vectors = self._vectors(rng, 10)
        index = PrefilterIndex.from_items(vectors)
        for key, row in zip(index.keys(), index.matrix()):
            np.testing.assert_array_equal(row, vectors[key])

    def test_dimension_mismatch_rejected(self):
        index = PrefilterIndex(dim=DESCRIPTOR_DIM)
        with pytest.raises(ConfigurationError):
            index.add("short", np.zeros(3))

    def test_ties_break_by_key(self):
        index = PrefilterIndex(dim=DESCRIPTOR_DIM)
        same = np.ones(DESCRIPTOR_DIM)
        for key in ("zebra", "apple", "mango"):
            index.add(key, same)
        got = [c.key for c in index.top_k(np.zeros(DESCRIPTOR_DIM), 3)]
        assert got == ["apple", "mango", "zebra"]

    @pytest.mark.parametrize("order", [("b", "a"), ("a", "b")])
    def test_tie_at_the_kth_place_breaks_by_key(self, rng, order):
        # Duplicate descriptors tie at the K-th distance: the shortlist
        # must not depend on which was enrolled first.
        same = rng.normal(size=DESCRIPTOR_DIM)
        index = PrefilterIndex(dim=DESCRIPTOR_DIM)
        for key in order:
            index.add(key, same)
        index.add("far", same + 1.0)
        probe = rng.normal(size=DESCRIPTOR_DIM)
        assert [c.key for c in index.top_k(probe, 1)] == ["a"]
        assert [c.key for c in index.top_k(probe, 2)] == ["a", "b"]


class TestMergeShardCandidates:
    def test_global_top_k_across_shards(self, rng):
        shards = {}
        flat = {}
        for device in ("D0", "D1", "D2"):
            vectors = {
                f"s-{i}": rng.normal(size=DESCRIPTOR_DIM) for i in range(15)
            }
            shards[device] = PrefilterIndex.from_items(vectors)
            flat.update({f"{device}/{k}": v for k, v in vectors.items()})
        probe = rng.normal(size=DESCRIPTOR_DIM)

        per_shard = [
            [
                PrefilterCandidate(f"{device}/{c.key}", c.distance, c.rank)
                for c in index.top_k(probe, 6)
            ]
            for device, index in shards.items()
        ]
        merged = merge_shard_candidates(per_shard, 6)

        expected = [
            key
            for _, key in sorted(
                (float(np.sum((v - probe) ** 2)), key) for key, v in flat.items()
            )[:6]
        ]
        assert [c.key for c in merged] == expected
        assert [c.rank for c in merged] == list(range(1, 7))

    def test_empty_shards_are_skipped(self):
        shard = [PrefilterCandidate("a", 1.0, 1)]
        merged = merge_shard_candidates([[], shard, []], 3)
        assert [c.key for c in merged] == ["a"]
        assert merge_shard_candidates([], 5) == []
        assert merge_shard_candidates([[], [], []], 5) == []

    def test_unequal_shard_sizes(self):
        big = [
            PrefilterCandidate(f"b-{i}", float(i), i) for i in range(1, 6)
        ]
        small = [PrefilterCandidate("s-0", 2.5, 1)]
        merged = merge_shard_candidates([big, small], 4)
        assert [c.key for c in merged] == ["b-1", "b-2", "s-0", "b-3"]
        assert [c.rank for c in merged] == [1, 2, 3, 4]

    def test_duplicate_keys_keep_nearest_distance(self):
        # A retried fan-out can answer twice: the same key must survive
        # once, at its best (smallest) distance.
        first = [PrefilterCandidate("dup", 3.0, 1)]
        second = [
            PrefilterCandidate("dup", 1.0, 1),
            PrefilterCandidate("other", 2.0, 2),
        ]
        merged = merge_shard_candidates([first, second], 5)
        assert [(c.key, c.distance) for c in merged] == [
            ("dup", 1.0), ("other", 2.0)
        ]
        assert [c.rank for c in merged] == [1, 2]

    def test_k_larger_than_total_gallery(self):
        shards = [
            [PrefilterCandidate("a", 1.0, 1)],
            [PrefilterCandidate("b", 2.0, 1)],
        ]
        merged = merge_shard_candidates(shards, 100)
        assert [c.key for c in merged] == ["a", "b"]

    def test_nonpositive_k_yields_empty(self):
        shards = [[PrefilterCandidate("a", 1.0, 1)]]
        assert merge_shard_candidates(shards, 0) == []
        assert merge_shard_candidates(shards, -3) == []

    def test_ties_break_on_key_across_shards(self):
        shards = [
            [PrefilterCandidate("zeta", 1.0, 1)],
            [PrefilterCandidate("alpha", 1.0, 1)],
        ]
        merged = merge_shard_candidates(shards, 2)
        assert [c.key for c in merged] == ["alpha", "zeta"]


class TestTwoStageParity:
    """Property: two-stage top-1 == exhaustive top-1, at scale."""

    GALLERY_IDENTITIES = 260  # x2 devices = 520 gallery keys
    PROBES = 8

    @pytest.fixture(scope="class")
    def big_gallery(self):
        rng = np.random.default_rng(20130624)
        fingers = [_random_template(rng) for _ in range(self.GALLERY_IDENTITIES)]
        gallery = {}
        for i, finger in enumerate(fingers):
            for device in ("D0", "D1"):
                gallery[f"{device}/id-{i:03d}"] = _device_view(finger, rng)
        return fingers, gallery, rng

    def test_two_stage_top1_matches_exhaustive(self, big_gallery, matcher):
        fingers, gallery, rng = big_gallery
        identifier = TwoStageIdentifier(matcher, gallery, candidate_k=32)
        assert len(identifier) == 2 * self.GALLERY_IDENTITIES

        probe_ids = rng.choice(self.GALLERY_IDENTITIES, self.PROBES, replace=False)
        for identity in probe_ids:
            probe = _device_view(fingers[identity], rng)
            exhaustive = rank_candidates(matcher, probe, gallery)
            fast, report = identifier.identify(probe, max_candidates=5)

            assert report.mode == "two_stage"
            assert report.gallery_size == len(gallery)
            assert report.candidates_scored == 32

            assert fast[0].identity == exhaustive[0].identity
            assert fast[0].score == exhaustive[0].score  # bit-identical rescore
            # The winner is the probe's own finger on one of the devices.
            assert fast[0].identity.split("/", 1)[1] == f"id-{identity:03d}"

    def test_generous_k_recovers_full_ranking_prefix(self, big_gallery, matcher):
        fingers, gallery, rng = big_gallery
        identifier = TwoStageIdentifier(matcher, gallery, candidate_k=64)
        probe = _device_view(fingers[3], rng)
        exhaustive = rank_candidates(matcher, probe, gallery)
        fast, _ = identifier.identify(probe, max_candidates=3)
        assert [c.identity for c in fast] == [
            c.identity for c in exhaustive[:3]
        ]
