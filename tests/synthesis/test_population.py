"""Population assembly and determinism."""

import pytest

from repro.runtime import StudyConfig
from repro.synthesis import FINGER_LABELS, Population
from repro.synthesis import population as population_module
from repro.synthesis.subject import demographic_histogram


class TestAccess:
    def test_len(self, tiny_population, tiny_config):
        assert len(tiny_population) == tiny_config.n_subjects

    def test_out_of_range(self, tiny_population):
        with pytest.raises(IndexError):
            tiny_population.subject(10_000)
        with pytest.raises(IndexError):
            tiny_population.subject(-1)

    def test_memoized(self, tiny_population):
        assert tiny_population.subject(0) is tiny_population.subject(0)

    def test_iteration_covers_all(self, tiny_population):
        ids = [s.subject_id for s in tiny_population]
        assert ids == list(range(len(tiny_population)))

    def test_finger_labels_respect_config(self):
        pop = Population(StudyConfig(n_subjects=3, fingers_per_subject=1))
        assert pop.finger_labels == FINGER_LABELS[:1]
        assert pop.primary_finger == "right_index"


class TestDeterminism:
    def test_same_config_same_subjects(self, tiny_config):
        a = Population(tiny_config).subject(3)
        b = Population(tiny_config).subject(3)
        assert a.fingers["right_index"].minutiae == b.fingers["right_index"].minutiae
        assert a.demographics == b.demographics
        assert a.traits == b.traits

    def test_subjects_mutually_distinct(self, tiny_population):
        a = tiny_population.subject(0).fingers["right_index"]
        b = tiny_population.subject(1).fingers["right_index"]
        assert a.minutiae != b.minutiae

    def test_fingers_of_one_subject_distinct(self, tiny_population):
        subject = tiny_population.subject(0)
        assert (
            subject.fingers["right_index"].minutiae
            != subject.fingers["right_middle"].minutiae
        )

    def test_seed_changes_population(self, tiny_config):
        other = Population(tiny_config.replace(master_seed=999))
        assert (
            other.subject(0).fingers["right_index"].minutiae
            != Population(tiny_config).subject(0).fingers["right_index"].minutiae
        )


class TestDemographicsTable:
    def test_table_sums_to_population(self, tiny_population):
        table = tiny_population.demographics_table()
        assert sum(table["age"].values()) == len(tiny_population)
        assert sum(table["ethnicity"].values()) == len(tiny_population)

    def test_table_matches_synthesized_subjects_without_fingers(
        self, monkeypatch
    ):
        config = StudyConfig(n_subjects=48)
        via_subjects = demographic_histogram(
            [subject.demographics for subject in Population(config)]
        )

        def no_fingers(_rng):
            raise AssertionError("demographics_table synthesized a finger")

        monkeypatch.setattr(
            population_module, "synthesize_master_finger", no_fingers
        )
        assert Population(config).demographics_table() == via_subjects
