"""Batch scoring must equal scalar matching bit-for-bit.

``score_pairs`` is the matcher's one batch entry point — study score
generation (``run_jobs``), 1:N ranking and the serving layer's
micro-batches all go through it — and the scalar ``match`` stays the
parity oracle.  These tests drive both over the same >=1000-job
workload (DMG genuine plus DDMI impostor, the two extremes of the
Table 2 scenarios) and over hand-built pair mixes, and demand exact
equality.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.scores import enumerate_dmg_jobs, run_jobs, sample_ddmi_jobs
from repro.matcher.engine import BioEngineMatcher
from repro.matcher.types import Template
from repro.runtime import SeedTree
from repro.runtime.telemetry import enable_telemetry, get_recorder, set_recorder

FINGER = "right_index"


@pytest.fixture(scope="module")
def parity_jobs():
    """DMG + DDMI jobs for the tiny collection, >=1000 in total."""
    dmg = enumerate_dmg_jobs(10)
    ddmi = sample_ddmi_jobs(10, 960, SeedTree(777))
    assert len(dmg) + len(ddmi) >= 1000
    return {"DMG": dmg, "DDMI": ddmi}


class TestBatchScalarParity:
    @pytest.mark.parametrize("scenario", ["DMG", "DDMI"])
    def test_run_jobs_matches_scalar_loop(
        self, parity_jobs, tiny_collection, matcher, scenario
    ):
        jobs = parity_jobs[scenario]
        result = run_jobs(jobs, tiny_collection, matcher, FINGER, scenario)
        galleries = [tiny_collection.get(sg, FINGER, dg, setg)
                     for sg, dg, setg, _, _, _ in jobs]
        probes = [tiny_collection.get(sp, FINGER, dp, setp)
                  for _, _, _, sp, dp, setp in jobs]
        scalar = [
            matcher.match(probe.template, gallery.template)
            for probe, gallery in zip(probes, galleries)
        ]
        np.testing.assert_array_equal(result.scores, np.asarray(scalar))
        np.testing.assert_array_equal(
            result.subject_gallery, [job[0] for job in jobs]
        )
        np.testing.assert_array_equal(
            result.subject_probe, [job[3] for job in jobs]
        )
        np.testing.assert_array_equal(
            result.device_gallery, [job[1] for job in jobs]
        )
        np.testing.assert_array_equal(
            result.device_probe, [job[4] for job in jobs]
        )
        np.testing.assert_array_equal(
            result.nfiq_gallery, [g.nfiq for g in galleries]
        )
        np.testing.assert_array_equal(
            result.nfiq_probe, [p.nfiq for p in probes]
        )


class TestOneToManyParity:
    """One probe against a candidate list, the 1:N shape of a batch."""

    def test_degenerate_probe_scores_all_zero(self, tiny_collection, matcher):
        empty_probe = Template(minutiae=(), width_px=100, height_px=100)
        galleries = [
            tiny_collection.get(sid, FINGER, "D0", 0).template
            for sid in range(4)
        ]
        np.testing.assert_array_equal(
            matcher.score_pairs([(empty_probe, g) for g in galleries]),
            np.zeros(4),
        )


#: Distinct comparisons and exact duplicates in ``TestScorePairsParity._pairs``.
DISTINCT_PAIRS = 19
DUPLICATE_PAIRS = 4


class TestScorePairsParity:
    """score_pairs vs the scalar loop."""

    def _pairs(self, tiny_collection):
        # Shared galleries (many probes vs one), shared probes (one vs
        # many), one-off pairs, a degenerate template on each side, and
        # exact duplicates — the same objects again, and an equal-content
        # copy that only the content key can tell is the same pair.
        pairs = []
        shared_gallery = tiny_collection.get(0, FINGER, "D0", 0).template
        for sid in range(8):
            probe = tiny_collection.get(sid, FINGER, "D1", 1).template
            pairs.append((probe, shared_gallery))
        shared_probe = tiny_collection.get(1, FINGER, "D2", 1).template
        for sid in range(2, 8):
            gallery = tiny_collection.get(sid, FINGER, "D0", 0).template
            pairs.append((shared_probe, gallery))
        for sid in range(4, 7):
            pairs.append((
                tiny_collection.get(sid, FINGER, "D3", 1).template,
                tiny_collection.get(sid, FINGER, "D4", 0).template,
            ))
        empty = Template(minutiae=(), width_px=100, height_px=100)
        pairs.append((empty, shared_gallery))
        pairs.append((shared_probe, empty))
        pairs.append(pairs[3])
        pairs.append(pairs[10])
        pairs.append(pairs[17])
        pairs.append((dataclasses.replace(pairs[15][0]), pairs[15][1]))
        assert len(pairs) == DISTINCT_PAIRS + DUPLICATE_PAIRS
        return pairs

    def test_score_pairs_equals_scalar_loop(self, tiny_collection, matcher):
        pairs = self._pairs(tiny_collection)
        batch = matcher.score_pairs(pairs)
        scalar = [matcher.match(probe, gallery) for probe, gallery in pairs]
        np.testing.assert_array_equal(np.asarray(batch), np.asarray(scalar))
        assert batch[17] == batch[18] == 0.0

    def test_score_pairs_scores_each_distinct_pair_once(self, tiny_collection):
        pairs = self._pairs(tiny_collection)
        previous = get_recorder()
        recorder = enable_telemetry()
        try:
            BioEngineMatcher().score_pairs(pairs)
        finally:
            set_recorder(previous)
        assert recorder.metrics.counter_value("matcher.invocations") == (
            DISTINCT_PAIRS
        )
        assert recorder.metrics.counter_value("matcher.collapsed") == (
            DUPLICATE_PAIRS
        )

    def test_score_pairs_preserves_input_order(self, tiny_collection, matcher):
        pairs = self._pairs(tiny_collection)
        shuffled = list(reversed(pairs))
        np.testing.assert_array_equal(
            matcher.score_pairs(shuffled), matcher.score_pairs(pairs)[::-1]
        )

    def test_score_pairs_empty(self, matcher):
        assert len(matcher.score_pairs([])) == 0
