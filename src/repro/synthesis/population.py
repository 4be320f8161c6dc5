"""Synthetic participant population.

:class:`Population` replaces the paper's 494 human volunteers.  Each
subject owns demographics, interaction traits and a set of master
fingers; everything is derived from a deterministic seed tree, so
subject 17's right index finger is identical across runs, processes and
machines for a given master seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from ..runtime.config import StudyConfig
from ..runtime.rng import SeedTree
from .master import MasterFinger, synthesize_master_finger
from .subject import (
    Demographics,
    SubjectTraits,
    demographic_histogram,
    sample_demographics,
    sample_traits,
)

#: Finger labels in capture order.  The paper analyzes the right "point"
#: (index) fingers; the second finger feeds the multi-finger-fusion
#: further-work experiment.
FINGER_LABELS: Tuple[str, ...] = ("right_index", "right_middle")

#: INCITS 378 finger-position codes for the labels above.
FINGER_POSITION_CODES: Dict[str, int] = {"right_index": 2, "right_middle": 3}


@dataclass(frozen=True)
class Subject:
    """One synthetic participant.

    Attributes
    ----------
    subject_id:
        Zero-based stable identifier.
    demographics:
        Age band and ethnicity (Figure 1).
    traits:
        Persistent interaction traits (skin, pressure, habituation).
    fingers:
        Mapping from finger label to its master finger.
    """

    subject_id: int
    demographics: Demographics
    traits: SubjectTraits
    fingers: Dict[str, MasterFinger]

    def finger(self, label: str) -> MasterFinger:
        """The master finger for ``label`` (raises KeyError if absent)."""
        return self.fingers[label]


class Population:
    """The full participant pool of one study run.

    Subjects are synthesized lazily and memoized, so constructing a
    Population is cheap and analyses that touch few subjects stay fast.

    Parameters
    ----------
    config:
        Study configuration (population size, seed, fingers per subject).
    seed_tree:
        Optional externally-rooted tree; defaults to a tree rooted at
        ``config.master_seed``.
    """

    def __init__(self, config: StudyConfig, seed_tree: SeedTree = None) -> None:
        self._config = config
        self._tree = seed_tree if seed_tree is not None else SeedTree(config.master_seed)
        self._cache: Dict[int, Subject] = {}

    @property
    def config(self) -> StudyConfig:
        """The study configuration this population was built for."""
        return self._config

    @property
    def n_subjects(self) -> int:
        """Number of participants."""
        return self._config.n_subjects

    @property
    def finger_labels(self) -> Tuple[str, ...]:
        """Finger labels captured for each subject, in capture order."""
        return FINGER_LABELS[: self._config.fingers_per_subject]

    @property
    def primary_finger(self) -> str:
        """The finger used for the headline score sets (right index)."""
        return FINGER_LABELS[0]

    def traits(self, subject_id: int) -> SubjectTraits:
        """Subject ``subject_id``'s interaction traits, fingers unsynthesized.

        Traits and demographics are drawn from their own seed-tree nodes,
        so they can be sampled without paying for master-finger synthesis
        — which is what makes content-addressed artifact digests (keyed
        partly on traits) cheap enough to compute for every subject on
        every run.
        """
        cached = self._cache.get(subject_id)
        if cached is not None:
            return cached.traits
        demographics, traits = self._sample_identity(subject_id)
        return traits

    def _sample_identity(self, subject_id: int):
        """Draw (demographics, traits) from the subject's seed node."""
        if not 0 <= subject_id < self.n_subjects:
            raise IndexError(
                f"subject_id {subject_id} outside population of {self.n_subjects}"
            )
        node = self._tree.child("subject", subject_id)
        demographics = sample_demographics(node.generator("demographics"))
        traits = sample_traits(node.generator("traits"), demographics)
        return demographics, traits

    def subject(self, subject_id: int) -> Subject:
        """Return (synthesizing on first access) subject ``subject_id``."""
        cached = self._cache.get(subject_id)
        if cached is not None:
            return cached

        demographics, traits = self._sample_identity(subject_id)
        node = self._tree.child("subject", subject_id)
        fingers: Dict[str, MasterFinger] = {}
        for label in self.finger_labels:
            fingers[label] = synthesize_master_finger(node.generator("finger", label))
        subject = Subject(
            subject_id=subject_id,
            demographics=demographics,
            traits=traits,
            fingers=fingers,
        )
        self._cache[subject_id] = subject
        return subject

    def __len__(self) -> int:
        return self.n_subjects

    def __iter__(self) -> Iterator[Subject]:
        for subject_id in range(self.n_subjects):
            yield self.subject(subject_id)

    def demographics_table(self) -> Dict[str, Dict[str, int]]:
        """Age/ethnicity histogram over the whole population (Figure 1).

        Reads demographics from their own seed-tree nodes, like
        :meth:`traits`, so no master finger is synthesized for it.
        """
        records = tuple(
            self._sample_identity(i)[0] for i in range(self.n_subjects)
        )
        return demographic_histogram(records)


__all__ = [
    "Subject",
    "Population",
    "FINGER_LABELS",
    "FINGER_POSITION_CODES",
]
