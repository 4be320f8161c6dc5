"""The diverse second matcher."""

import numpy as np
import pytest

from repro.matcher.ridgecount import RidgeGeometryMatcher
from repro.matcher.types import Template


@pytest.fixture(scope="module")
def engine():
    return RidgeGeometryMatcher()


class TestBehaviour:
    def test_genuine_beats_impostor(
        self, engine, genuine_template_pair, impostor_template_pair
    ):
        genuine = engine.match(*genuine_template_pair)
        impostor = engine.match(*impostor_template_pair)
        assert genuine > impostor

    def test_scale_shared_with_bioengine(self, engine, genuine_template_pair):
        score = engine.match(*genuine_template_pair)
        assert 0.0 <= score <= 30.0

    def test_self_match_high(self, engine, genuine_template_pair):
        template = genuine_template_pair[0]
        assert engine.match(template, template) > 10

    def test_empty_template(self, engine, genuine_template_pair):
        empty = Template(minutiae=(), width_px=800, height_px=750)
        assert engine.match(empty, genuine_template_pair[0]) == 0.0

    def test_deterministic(self, engine, genuine_template_pair):
        assert engine.match(*genuine_template_pair) == engine.match(
            *genuine_template_pair
        )

    def test_fails_differently_from_bioengine(self, tiny_collection):
        # Diversity requirement: score vectors of the two engines over the
        # same comparisons must not be perfectly rank-correlated.
        from repro.matcher.engine import BioEngineMatcher
        from repro.stats.kendall import kendall_tau

        bio = BioEngineMatcher()
        ridge = RidgeGeometryMatcher()
        bio_scores, ridge_scores = [], []
        for sid in range(10):
            a = tiny_collection.get(sid, "right_index", "D0", 0).template
            b = tiny_collection.get(sid, "right_index", "D1", 1).template
            bio_scores.append(bio.match(b, a))
            ridge_scores.append(ridge.match(b, a))
        tau = kendall_tau(bio_scores, ridge_scores).tau
        assert tau < 0.999  # correlated is fine, identical is not


class TestBatchProtocol:
    """``score_pairs`` is the batch half of every registered matcher."""

    def test_score_pairs_equals_match_loop(self, engine, tiny_collection):
        empty = Template(minutiae=(), width_px=800, height_px=750)
        gallery = tiny_collection.get(0, "right_index", "D0", 0).template
        pairs = [
            (tiny_collection.get(sid, "right_index", device, 1).template,
             gallery)
            for sid in range(4) for device in ("D0", "D3")
        ]
        pairs += [(empty, gallery), (gallery, empty), pairs[0]]
        np.testing.assert_array_equal(
            engine.score_pairs(pairs),
            np.asarray([engine.match(p, g) for p, g in pairs]),
        )
        assert len(engine.score_pairs([])) == 0

    def test_rank_candidates_equals_scalar_ranking(
        self, engine, tiny_collection
    ):
        from repro.core.identification import (
            rank_candidates,
            rank_candidates_scalar,
        )

        gallery = {
            f"{device}/subject-{sid}": tiny_collection.get(
                sid, "right_index", device, 0
            ).template
            for device in ("D0", "D1")
            for sid in range(10)
        }
        for sid, device in ((3, "D0"), (7, "D2")):
            probe = tiny_collection.get(sid, "right_index", device, 1).template
            assert rank_candidates(engine, probe, gallery) == (
                rank_candidates_scalar(engine, probe, gallery)
            )


class TestTableCache:
    def test_recycled_template_address_gets_its_own_table(
        self, tiny_collection
    ):
        # Each probe is dropped before the next is built, so the allocator
        # hands the new one a dead probe's address: a cache keyed by id()
        # served the dead probe's pair table and a wrong score.
        gallery = tiny_collection.get(0, "right_index", "D0", 0).template
        sources = [
            tiny_collection.get(sid, "right_index", device, 1).template
            for sid in range(5) for device in ("D0", "D1")
        ]
        shared = RidgeGeometryMatcher()
        scores, expected = [], []
        for i in range(200):
            source = sources[i % len(sources)]
            drop = (i // len(sources)) % len(source)
            probe = Template(
                minutiae=source.minutiae[:drop] + source.minutiae[drop + 1:],
                width_px=source.width_px,
                height_px=source.height_px,
            )
            scores.append(shared.match(probe, gallery))
            expected.append(RidgeGeometryMatcher().match(probe, gallery))
            del probe
        assert scores == expected
