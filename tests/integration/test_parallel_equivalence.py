"""Parallel execution must be bit-identical to sequential."""

import numpy as np
import pytest

from repro.api import InteroperabilityStudy, StudyConfig
from repro.datasets import build_collection


class TestCollectionEquivalence:
    def test_parallel_collection_identical(self):
        base = StudyConfig(n_subjects=8, master_seed=321)
        sequential = build_collection(base)
        parallel = build_collection(base.replace(n_workers=2))
        assert len(sequential) == len(parallel)
        for imp in sequential:
            other = parallel.get(
                imp.subject_id, imp.finger_label, imp.device_id, imp.set_index
            )
            assert other.template.minutiae == imp.template.minutiae
            assert other.nfiq == imp.nfiq


class TestScoreEquivalence:
    def test_parallel_scores_identical(self):
        seq = InteroperabilityStudy(
            StudyConfig(n_subjects=8, master_seed=55, n_workers=0)
        ).score_sets()
        par = InteroperabilityStudy(
            StudyConfig(n_subjects=8, master_seed=55, n_workers=2)
        ).score_sets()
        for scenario in seq:
            np.testing.assert_array_equal(
                seq[scenario].scores, par[scenario].scores
            )
            np.testing.assert_array_equal(
                seq[scenario].subject_gallery, par[scenario].subject_gallery
            )
