"""1:N identification machinery."""

import numpy as np
import pytest

from repro.core.identification import (
    CmcCurve,
    Candidate,
    cmc_curve,
    cross_device_cmc,
    identification_rank,
    open_set_rates,
    rank_candidates,
    rank_candidates_scalar,
    run_identification,
)
from repro.runtime.errors import ConfigurationError


class _ConstantMatcher:
    """Every comparison scores the same — the all-tied edge case."""

    def match(self, probe, gallery):
        return 5.0

    def score_pairs(self, pairs):
        return np.full(len(pairs), 5.0)


@pytest.fixture(scope="module")
def gallery(tiny_collection, tiny_config):
    return {
        f"subject-{sid}": tiny_collection.get(sid, "right_index", "D0", 0).template
        for sid in range(tiny_config.n_subjects)
    }


class TestRankCandidates:
    def test_true_identity_ranks_first(self, matcher, gallery, tiny_collection):
        probe = tiny_collection.get(3, "right_index", "D0", 1).template
        candidates = rank_candidates(matcher, probe, gallery)
        assert candidates[0].identity == "subject-3"
        assert candidates[0].score > candidates[1].score

    def test_scores_sorted_descending(self, matcher, gallery, tiny_collection):
        probe = tiny_collection.get(0, "right_index", "D1", 1).template
        candidates = rank_candidates(matcher, probe, gallery)
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)

    def test_max_candidates(self, matcher, gallery, tiny_collection):
        probe = tiny_collection.get(0, "right_index", "D0", 1).template
        assert len(rank_candidates(matcher, probe, gallery, max_candidates=3)) == 3

    def test_empty_gallery_returns_no_candidates(self, matcher, tiny_collection):
        probe = tiny_collection.get(0, "right_index", "D0", 1).template
        assert rank_candidates(matcher, probe, {}) == []
        assert rank_candidates_scalar(matcher, probe, {}) == []

    def test_all_tied_scores_order_by_identity(self, gallery, tiny_collection):
        probe = tiny_collection.get(0, "right_index", "D0", 1).template
        candidates = rank_candidates(_ConstantMatcher(), probe, gallery)
        identities = [c.identity for c in candidates]
        assert identities == sorted(gallery)
        assert all(c.score == 5.0 for c in candidates)


class TestBatchedScalarParity:
    def test_batched_ranking_equals_scalar_on_500_pairs(
        self, matcher, tiny_collection, tiny_config
    ):
        """Acceptance: >= 500 probe/gallery pairs, identical rankings."""
        gallery = {
            f"{device}/subject-{sid}": tiny_collection.get(
                sid, "right_index", device, 0
            ).template
            for device in ("D0", "D1")
            for sid in range(tiny_config.n_subjects)
        }
        probes = [
            tiny_collection.get(sid, "right_index", device, 1).template
            for device in ("D0", "D1", "D2", "D3", "D4")
            for sid in range(5)
        ]
        assert len(probes) * len(gallery) >= 500
        for probe in probes:
            batched = rank_candidates(matcher, probe, gallery)
            scalar = rank_candidates_scalar(matcher, probe, gallery)
            assert [c.identity for c in batched] == [c.identity for c in scalar]
            np.testing.assert_array_equal(
                np.array([c.score for c in batched]),
                np.array([c.score for c in scalar]),
            )


class TestRankHelpers:
    def test_identification_rank(self):
        candidates = [Candidate("a", 9.0), Candidate("b", 5.0), Candidate("c", 1.0)]
        assert identification_rank(candidates, "a") == 1
        assert identification_rank(candidates, "c") == 3
        assert identification_rank(candidates, "ghost") == 0


class TestCmc:
    def test_known_ranks(self):
        curve = cmc_curve([1, 1, 2, 3, 0], max_rank=3)
        assert curve.rank1 == pytest.approx(0.4)
        assert curve.rate_at(2) == pytest.approx(0.6)
        assert curve.rate_at(3) == pytest.approx(0.8)  # the 0 never hits

    def test_monotone_nondecreasing(self):
        curve = cmc_curve([1, 3, 5, 2, 4, 0], max_rank=6)
        assert np.all(np.diff(curve.hit_rates) >= -1e-12)

    def test_rate_saturates_past_max_rank(self):
        curve = cmc_curve([1, 2], max_rank=2)
        assert curve.rate_at(50) == curve.rate_at(2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            cmc_curve([1], max_rank=0)
        with pytest.raises(ConfigurationError):
            cmc_curve([1], max_rank=3).rate_at(0)

    def test_zero_probes_yield_zero_curve(self):
        curve = cmc_curve([], max_rank=3)
        assert curve.n_probes == 0
        np.testing.assert_array_equal(curve.hit_rates, np.zeros(3))
        assert curve.rank1 == 0.0
        assert curve.rate_at(2) == 0.0

    def test_empty_curve_rate_at_is_zero(self):
        curve = CmcCurve(hit_rates=np.zeros(0), n_probes=0)
        assert curve.rank1 == 0.0
        assert curve.rate_at(1) == 0.0

    def test_absent_identities_never_hit(self):
        # Probes whose identity is missing from the gallery arrive as
        # rank 0 and must depress, not crash, the curve.
        curve = cmc_curve([0, 0, 1], max_rank=2)
        assert curve.rank1 == pytest.approx(1.0 / 3.0)
        assert curve.rate_at(2) == pytest.approx(1.0 / 3.0)

    def test_render(self):
        text = cmc_curve([1, 2, 1], max_rank=3).render()
        assert "rank   1" in text and "CMC over 3 probes" in text


class TestEndToEnd:
    def test_same_device_identification_near_perfect(
        self, tiny_study, matcher, gallery, tiny_collection, tiny_config
    ):
        probes = [
            (f"subject-{sid}",
             tiny_collection.get(sid, "right_index", "D0", 1).template)
            for sid in range(tiny_config.n_subjects)
        ]
        curve = run_identification(matcher, probes, gallery, max_rank=5)
        assert curve.rank1 >= 0.9

    def test_cross_device_cmc_degrades(self, tiny_study):
        native = cross_device_cmc(tiny_study, "D0", "D0", max_rank=5)
        ink = cross_device_cmc(tiny_study, "D0", "D4", max_rank=5)
        assert native.rank1 >= ink.rank1

    def test_open_set_rates(self, tiny_study, matcher, tiny_collection, tiny_config):
        n = tiny_config.n_subjects
        half = n // 2
        gallery = {
            f"subject-{sid}": tiny_collection.get(
                sid, "right_index", "D0", 0
            ).template
            for sid in range(half)
        }
        enrolled = [
            (f"subject-{sid}",
             tiny_collection.get(sid, "right_index", "D0", 1).template)
            for sid in range(half)
        ]
        unenrolled = [
            tiny_collection.get(sid, "right_index", "D0", 1).template
            for sid in range(half, n)
        ]
        fnir, fpir = open_set_rates(
            matcher, enrolled, unenrolled, gallery, threshold=7.5
        )
        assert fnir < 0.5
        assert fpir < 0.3

    def test_open_set_validation(self, matcher, gallery):
        with pytest.raises(ConfigurationError):
            open_set_rates(matcher, [], [], gallery, threshold=5.0)

    def test_open_set_empty_gallery_is_all_misses(
        self, matcher, tiny_collection
    ):
        probe = tiny_collection.get(0, "right_index", "D0", 1).template
        fnir, fpir = open_set_rates(
            matcher, [("subject-0", probe)], [probe], {}, threshold=5.0
        )
        assert fnir == 1.0
        assert fpir == 0.0
        # Only unenrolled probes: nothing to miss, nothing to alarm on.
        fnir, fpir = open_set_rates(matcher, [], [probe], {}, threshold=5.0)
        assert fnir == 0.0
        assert fpir == 0.0

    def test_open_set_absent_identity_counts_as_miss(
        self, matcher, gallery, tiny_collection
    ):
        probe = tiny_collection.get(0, "right_index", "D0", 1).template
        fnir, _ = open_set_rates(
            matcher, [("ghost", probe)], [], gallery, threshold=0.0
        )
        assert fnir == 1.0
