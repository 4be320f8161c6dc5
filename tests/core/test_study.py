"""Study orchestrator: generation, caching, slicing."""

import numpy as np
import pytest

from repro.api import InteroperabilityStudy, StudyConfig
from repro.core.scores import expected_counts
from repro.runtime import ScoreCache


class TestScoreGeneration:
    def test_counts_match_expected(self, tiny_study, tiny_config):
        sets = tiny_study.score_sets()
        expected = expected_counts(tiny_config)
        for scenario, count in expected.items():
            assert len(sets[scenario]) == count

    def test_sets_memoized(self, tiny_study):
        assert tiny_study.score_sets() is tiny_study.score_sets()

    def test_genuine_beats_impostor_in_aggregate(self, tiny_study):
        sets = tiny_study.score_sets()
        assert sets["DMG"].scores.mean() > sets["DMI"].scores.mean() + 8
        assert sets["DDMG"].scores.mean() > sets["DDMI"].scores.mean() + 5

    def test_d4_diagonal_genuine(self, tiny_study, tiny_config):
        d4 = tiny_study.d4_diagonal_genuine()
        assert len(d4) == tiny_config.n_subjects
        assert np.all(d4.device_gallery == "D4")
        assert np.all(d4.device_probe == "D4")


class TestSlicing:
    def test_genuine_scores_diagonal_uses_dmg(self, tiny_study, tiny_config):
        cell = tiny_study.genuine_scores("D0", "D0")
        assert len(cell) == tiny_config.n_subjects
        assert cell.scenario == "DMG"

    def test_genuine_scores_offdiagonal_uses_ddmg(self, tiny_study, tiny_config):
        cell = tiny_study.genuine_scores("D0", "D3")
        assert len(cell) == tiny_config.n_subjects
        assert cell.scenario == "DDMG"

    def test_genuine_scores_d4_diagonal_special(self, tiny_study):
        cell = tiny_study.genuine_scores("D4", "D4")
        assert len(cell) == tiny_study.config.n_subjects

    def test_impostor_scores_routing(self, tiny_study):
        same = tiny_study.impostor_scores("D1", "D1")
        cross = tiny_study.impostor_scores("D1", "D2")
        assert np.all(same.device_gallery == "D1")
        assert np.all(same.device_probe == "D1")
        assert np.all(cross.device_probe == "D2")

    def test_genuine_vector_subject_order(self, tiny_study, tiny_config):
        vector = tiny_study.genuine_vector("D0", "D1")
        assert vector.shape == (tiny_config.n_subjects,)
        cell = tiny_study.genuine_scores("D0", "D1")
        for sid in range(tiny_config.n_subjects):
            expected = cell.scores[cell.subject_gallery == sid][0]
            assert vector[sid] == expected


class TestAnalysisShapes:
    def test_fnmr_matrix_is_5x5(self, tiny_study):
        matrix = tiny_study.fnmr_matrix(1e-2)
        assert matrix.shape == (5, 5)
        assert np.all((matrix >= 0) | np.isnan(matrix))
        assert np.all((matrix <= 1) | np.isnan(matrix))

    def test_kendall_matrix_cells(self, tiny_study):
        results = tiny_study.kendall_matrix()
        assert len(results) == 4 * 5
        for (row, col), result in results.items():
            if row == col:
                assert result.tau == pytest.approx(1.0)

    def test_quality_surface(self, tiny_study):
        surface = tiny_study.low_score_quality_surface(cross_device=True)
        assert surface.counts.shape == (5, 5)

    def test_demographics_table(self, tiny_study, tiny_config):
        table = tiny_study.demographics()
        assert sum(table["age"].values()) == tiny_config.n_subjects


class TestCaching:
    def test_cache_roundtrip_preserves_scores(self, tmp_path):
        config = StudyConfig(n_subjects=4, master_seed=5)
        cache = ScoreCache(tmp_path)
        first = InteroperabilityStudy(config, cache=cache)
        original = first.score_sets()

        # A fresh study with the same cache must load identical sets
        # without rebuilding (collection stays untouched).
        second = InteroperabilityStudy(config, cache=cache)
        restored = second.score_sets()
        assert second._collection is None  # nothing was re-acquired
        for scenario in original:
            np.testing.assert_array_equal(
                restored[scenario].scores, original[scenario].scores
            )
            np.testing.assert_array_equal(
                restored[scenario].device_gallery,
                original[scenario].device_gallery,
            )

    def test_different_config_different_cache_key(self, tmp_path):
        cache = ScoreCache(tmp_path)
        a = InteroperabilityStudy(StudyConfig(n_subjects=4, master_seed=5), cache=cache)
        a.score_sets()
        b = InteroperabilityStudy(StudyConfig(n_subjects=4, master_seed=6), cache=cache)
        b.score_sets()
        assert not np.array_equal(
            a.score_sets()["DMG"].scores, b.score_sets()["DMG"].scores
        )


class TestDeterminism:
    def test_same_config_identical_scores(self):
        config = StudyConfig(n_subjects=4, master_seed=77)
        a = InteroperabilityStudy(config).score_sets()
        b = InteroperabilityStudy(config).score_sets()
        for scenario in a:
            np.testing.assert_array_equal(a[scenario].scores, b[scenario].scores)

    def test_different_seed_different_scores(self):
        a = InteroperabilityStudy(StudyConfig(n_subjects=4, master_seed=1)).score_sets()
        b = InteroperabilityStudy(StudyConfig(n_subjects=4, master_seed=2)).score_sets()
        assert not np.array_equal(a["DMG"].scores, b["DMG"].scores)
