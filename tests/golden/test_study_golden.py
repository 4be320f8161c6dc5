"""Fixed-seed golden of a small in-process study.

``study_n16.json`` pins the four score sets (content digests of the
scores and their provenance), the Table 3 counts and the Table 5 FNMR
matrix of a 16-subject study on the default master seed.  Any change
to acquisition, the matcher or the analyses that moves a single score
bit fails here.  A change that means to move them regenerates the file
and says why:

    PYTHONPATH=src python -m tests.golden.test_study_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import InteroperabilityStudy, StudyConfig

GOLDEN_PATH = Path(__file__).with_name("study_n16.json")
SUBJECTS = 16
SCENARIOS = ("DMG", "DDMG", "DMI", "DDMI")


def score_set_digest(score_set) -> str:
    """BLAKE2b-128 over the scores and their provenance columns."""
    h = hashlib.blake2b(digest_size=16)
    for array in (
        score_set.scores.astype("<f8"),
        score_set.subject_gallery.astype("<i8"),
        score_set.subject_probe.astype("<i8"),
        score_set.device_gallery.astype("<U2"),
        score_set.device_probe.astype("<U2"),
    ):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def compute_golden() -> dict:
    """Run the pinned study in-process and collect what the golden holds."""
    config = StudyConfig(n_subjects=SUBJECTS, n_workers=0)
    study = InteroperabilityStudy(config)
    sets = study.score_sets()
    return {
        "master_seed": config.master_seed,
        "subjects": SUBJECTS,
        "digests": {s: score_set_digest(sets[s]) for s in SCENARIOS},
        "table3": {s: len(sets[s]) for s in SCENARIOS},
        "table5": study.fnmr_matrix(1e-4).tolist(),
    }


@pytest.fixture(scope="module")
def golden_run() -> dict:
    return compute_golden()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_configuration_matches(golden_run, golden):
    assert golden_run["master_seed"] == golden["master_seed"]
    assert golden_run["subjects"] == golden["subjects"]


def test_table3_counts(golden_run, golden):
    assert golden_run["table3"] == golden["table3"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_score_set_digest(golden_run, golden, scenario):
    assert golden_run["digests"][scenario] == golden["digests"][scenario]


def test_table5_matrix(golden_run, golden):
    got = np.asarray(golden_run["table5"], dtype=np.float64)
    pinned = np.asarray(golden["table5"], dtype=np.float64)
    assert got.shape == pinned.shape
    assert np.array_equal(got, pinned, equal_nan=True)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
