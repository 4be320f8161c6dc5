"""Score-set generation — the paper's Table 2 scenarios and Table 3 counts.

The four similarity-score scenarios (paper, Table 2):

* **DMG** — Device Match Genuine: same user, same device.  One score per
  subject per live-scan device (gallery = first interaction, probe = the
  second) → 494 x 4 = 1,976 at paper scale.
* **DMI** — Device Match Impostor: different users, same device, over
  all five devices, randomly subsampled to the budget (120,855).
* **DDMG** — Diverse Device Match Genuine: same user, different devices.
  "Having 5 collection sensors, we have 10 possible combinations with
  two match scores for each probe" → 20 ordered pairs per subject →
  9,880.
* **DDMI** — Diverse Device Match Impostor: different users, different
  devices, subsampled to 483,420.

A :class:`ScoreSet` stores parallel arrays so every score keeps its
provenance (subjects, devices, NFIQ levels of both sides) — the later
analyses (Tables 4–6, Figure 5) all slice on that provenance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime.config import StudyConfig
from ..runtime.errors import ConfigurationError
from ..runtime.progress import ProgressReporter
from ..runtime.rng import SeedTree
from ..runtime.telemetry import get_recorder
from ..sensors.protocol import Collection
from ..sensors.registry import DEVICE_ORDER, LIVESCAN_DEVICES

#: Scenario labels (Table 2 notation).
SCENARIOS = ("DMG", "DMI", "DDMG", "DDMI")


@dataclass(frozen=True)
class ScoreSet:
    """Similarity scores with full provenance.

    All arrays are parallel; ``device_*`` arrays hold device-id strings
    (``"D0"`` … ``"D4"``), ``nfiq_*`` the NFIQ level of each side's
    image.
    """

    scenario: str
    matcher_name: str
    scores: np.ndarray
    subject_gallery: np.ndarray
    subject_probe: np.ndarray
    device_gallery: np.ndarray
    device_probe: np.ndarray
    nfiq_gallery: np.ndarray
    nfiq_probe: np.ndarray

    # The filter API --------------------------------------------------
    # Every filter returns a new ScoreSet with the same scenario and
    # matcher labels and all provenance arrays restricted in lockstep,
    # so filters chain freely:
    #
    #     sets["DDMG"].for_pair("D0", "D1").with_max_nfiq(2)
    #     sets["DMG"].for_subjects(range(100)).select(custom_mask)
    #
    # ``select(mask)`` is the primitive; ``for_pair``, ``for_subjects``
    # and ``with_max_nfiq`` are named masks built on top of it.

    def __post_init__(self) -> None:
        n = len(self.scores)
        for name in ("subject_gallery", "subject_probe", "device_gallery",
                     "device_probe", "nfiq_gallery", "nfiq_probe"):
            if len(getattr(self, name)) != n:
                raise ConfigurationError(
                    f"ScoreSet field {name} has length "
                    f"{len(getattr(self, name))}, expected {n}"
                )

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def is_genuine(self) -> bool:
        """Whether this scenario compares samples of the same person."""
        return self.scenario in ("DMG", "DDMG")

    def select(self, mask: np.ndarray) -> "ScoreSet":
        """A new ScoreSet restricted to ``mask`` (provenance preserved)."""
        return ScoreSet(
            scenario=self.scenario,
            matcher_name=self.matcher_name,
            scores=self.scores[mask],
            subject_gallery=self.subject_gallery[mask],
            subject_probe=self.subject_probe[mask],
            device_gallery=self.device_gallery[mask],
            device_probe=self.device_probe[mask],
            nfiq_gallery=self.nfiq_gallery[mask],
            nfiq_probe=self.nfiq_probe[mask],
        )

    def for_pair(self, gallery_device: str, probe_device: str) -> "ScoreSet":
        """Scores whose gallery/probe devices match the given pair."""
        mask = (self.device_gallery == gallery_device) & (
            self.device_probe == probe_device
        )
        return self.select(mask)

    def for_subjects(self, subjects: Sequence[int]) -> "ScoreSet":
        """Scores where *both* sides belong to the given subjects.

        The subject-axis counterpart of :meth:`for_pair`: genuine rows
        keep exactly the listed subjects; impostor rows survive only when
        gallery and probe subject are both listed.
        """
        wanted = np.asarray(list(subjects), dtype=np.int64)
        mask = np.isin(self.subject_gallery, wanted) & np.isin(
            self.subject_probe, wanted
        )
        return self.select(mask)

    def with_max_nfiq(self, max_level: int) -> "ScoreSet":
        """Scores where *both* images have NFIQ <= ``max_level``.

        This is the filter of Table 6 ("images with NFIQ quality < 3"
        means keeping levels 1 and 2 → ``max_level=2``).
        """
        mask = (self.nfiq_gallery <= max_level) & (self.nfiq_probe <= max_level)
        return self.select(mask)

    @staticmethod
    def assemble(
        parts: Sequence["ScoreSet"], positions: Sequence[np.ndarray]
    ) -> "ScoreSet":
        """Merge parts and restore original job order by position.

        ``positions[i]`` gives, for each row of ``parts[i]``, that row's
        index in the original job enumeration.  The positions need not
        form a contiguous range — rows of skipped batches are simply
        absent from the result — but must be pairwise disjoint for the
        ordering to be meaningful.
        """
        if len(parts) != len(positions):
            raise ConfigurationError(
                f"assemble got {len(parts)} parts but "
                f"{len(positions)} position arrays"
            )
        for part, pos in zip(parts, positions):
            if len(part) != len(pos):
                raise ConfigurationError(
                    f"assemble part has {len(part)} rows but "
                    f"{len(pos)} positions"
                )
        combined = ScoreSet.concatenate(parts)
        flat = np.concatenate(
            [np.asarray(pos, dtype=np.int64) for pos in positions]
        )
        order = np.argsort(flat, kind="stable")
        return combined.select(order)

    @staticmethod
    def concatenate(parts: Sequence["ScoreSet"]) -> "ScoreSet":
        """Merge score sets of the same scenario and matcher."""
        if not parts:
            raise ConfigurationError("cannot concatenate zero score sets")
        scenario = parts[0].scenario
        matcher = parts[0].matcher_name
        for p in parts[1:]:
            if p.scenario != scenario or p.matcher_name != matcher:
                raise ConfigurationError(
                    "cannot concatenate score sets from different scenarios"
                )
        return ScoreSet(
            scenario=scenario,
            matcher_name=matcher,
            scores=np.concatenate([p.scores for p in parts]),
            subject_gallery=np.concatenate([p.subject_gallery for p in parts]),
            subject_probe=np.concatenate([p.subject_probe for p in parts]),
            device_gallery=np.concatenate([p.device_gallery for p in parts]),
            device_probe=np.concatenate([p.device_probe for p in parts]),
            nfiq_gallery=np.concatenate([p.nfiq_gallery for p in parts]),
            nfiq_probe=np.concatenate([p.nfiq_probe for p in parts]),
        )


# ----------------------------------------------------------------------
# Pair enumeration (the Table 2/3 counting rules)
# ----------------------------------------------------------------------

#: A match job: (subject_g, device_g, set_g, subject_p, device_p, set_p).
MatchJob = Tuple[int, str, int, int, str, int]

#: Set index used for gallery images (the subject's first interaction).
GALLERY_SET = 0

#: Set index used for probe images (the second interaction).
PROBE_SET = 1


def probe_set_for(device_id: str) -> int:
    """Probe set index for a device (D4's probe is the slap impression)."""
    return PROBE_SET


def enumerate_dmg_jobs(n_subjects: int) -> List[MatchJob]:
    """Same-device genuine jobs: one per subject per live-scan device.

    The paper excludes D4 from DMG because participants contributed a
    single ten-print card collection (Table 3: 1,976 = 494 x 4).
    """
    return [
        (s, d, GALLERY_SET, s, d, PROBE_SET)
        for s in range(n_subjects)
        for d in LIVESCAN_DEVICES
    ]


def enumerate_ddmg_jobs(n_subjects: int) -> List[MatchJob]:
    """Cross-device genuine jobs: 20 ordered device pairs per subject.

    "10 possible combinations with two match scores for each probe"
    (Table 3: 9,880 = 494 x 20) — both orderings of each unordered pair.
    """
    jobs: List[MatchJob] = []
    for s in range(n_subjects):
        for dev_g, dev_p in itertools.permutations(DEVICE_ORDER, 2):
            jobs.append((s, dev_g, GALLERY_SET, s, dev_p, probe_set_for(dev_p)))
    return jobs


def sample_dmi_jobs(
    n_subjects: int, budget: int, tree: SeedTree
) -> List[MatchJob]:
    """Same-device impostor jobs, randomly subsampled to ``budget``.

    The paper limited impostor scores "to a random subset which is still
    sufficient for statistical confidence"; devices are sampled
    uniformly, subject pairs uniformly without replacement within the
    draw (duplicates are redrawn via oversampling).
    """
    rng = tree.generator("impostor-sample", "DMI")
    return _sample_impostor_jobs(rng, n_subjects, budget, cross_device=False)


def sample_ddmi_jobs(
    n_subjects: int, budget: int, tree: SeedTree
) -> List[MatchJob]:
    """Cross-device impostor jobs, randomly subsampled to ``budget``."""
    rng = tree.generator("impostor-sample", "DDMI")
    return _sample_impostor_jobs(rng, n_subjects, budget, cross_device=True)


def _sample_impostor_jobs(
    rng: np.random.Generator, n_subjects: int, budget: int, cross_device: bool
) -> List[MatchJob]:
    if n_subjects < 2:
        raise ConfigurationError("impostor jobs need at least two subjects")
    devices = list(DEVICE_ORDER)
    jobs: Dict[MatchJob, None] = {}
    # Oversample in rounds until the budget of *unique* jobs is met; the
    # space of possible jobs is vastly larger than any budget we use, so
    # two rounds nearly always suffice.
    while len(jobs) < budget:
        need = budget - len(jobs)
        draw = int(np.ceil(need * 1.2)) + 8
        subj_g = rng.integers(0, n_subjects, size=draw)
        subj_p = rng.integers(0, n_subjects, size=draw)
        dev_g_idx = rng.integers(0, len(devices), size=draw)
        if cross_device:
            shift = rng.integers(1, len(devices), size=draw)
            dev_p_idx = (dev_g_idx + shift) % len(devices)
        else:
            dev_p_idx = dev_g_idx
        for k in range(draw):
            if subj_g[k] == subj_p[k]:
                continue
            dev_g = devices[int(dev_g_idx[k])]
            dev_p = devices[int(dev_p_idx[k])]
            job = (
                int(subj_g[k]), dev_g, GALLERY_SET,
                int(subj_p[k]), dev_p, probe_set_for(dev_p),
            )
            if job not in jobs:
                jobs[job] = None
                if len(jobs) >= budget:
                    break
    return list(jobs)


def expected_counts(config: StudyConfig) -> Dict[str, int]:
    """The Table 3 row counts implied by a configuration."""
    n = config.n_subjects
    return {
        "DMG": n * len(LIVESCAN_DEVICES),
        "DDMG": n * len(DEVICE_ORDER) * (len(DEVICE_ORDER) - 1),
        "DMI": config.scaled_dmi_budget(),
        "DDMI": config.scaled_ddmi_budget(),
    }


# ----------------------------------------------------------------------
# Job execution
# ----------------------------------------------------------------------
def run_jobs(
    jobs: Sequence[MatchJob],
    collection: Collection,
    matcher,
    finger: str,
    scenario: str,
    progress: Optional[ProgressReporter] = None,
) -> ScoreSet:
    """Execute match jobs against a collection and assemble a ScoreSet.

    The jobs' (probe, gallery) pairs are scored in job order by one
    ``matcher.score_pairs`` call, so row ``k`` of the result is job
    ``k``.  ``progress`` (optional) advances by the job count once the
    call returns.
    """
    n = len(jobs)
    pairs = []
    subj_g = np.empty(n, dtype=np.int64)
    subj_p = np.empty(n, dtype=np.int64)
    dev_g = np.empty(n, dtype="<U2")
    dev_p = np.empty(n, dtype="<U2")
    nfiq_g = np.empty(n, dtype=np.int64)
    nfiq_p = np.empty(n, dtype=np.int64)
    for k, (sg, dg, setg, sp, dp, setp) in enumerate(jobs):
        gallery = collection.get(sg, finger, dg, setg)
        probe = collection.get(sp, finger, dp, setp)
        pairs.append((probe.template, gallery.template))
        subj_g[k] = sg
        subj_p[k] = sp
        dev_g[k] = dg
        dev_p[k] = dp
        nfiq_g[k] = gallery.nfiq
        nfiq_p[k] = probe.nfiq
    scores = np.asarray(matcher.score_pairs(pairs), dtype=np.float64)
    if progress is not None:
        progress.update(n)
    recorder = get_recorder()
    if recorder.active:
        recorder.count(f"matcher.invocations.{scenario}", n)
    return ScoreSet(
        scenario=scenario,
        matcher_name=getattr(matcher, "name", type(matcher).__name__),
        scores=scores,
        subject_gallery=subj_g,
        subject_probe=subj_p,
        device_gallery=dev_g,
        device_probe=dev_p,
        nfiq_gallery=nfiq_g,
        nfiq_probe=nfiq_p,
    )


__all__ = [
    "ScoreSet",
    "SCENARIOS",
    "MatchJob",
    "GALLERY_SET",
    "PROBE_SET",
    "probe_set_for",
    "enumerate_dmg_jobs",
    "enumerate_ddmg_jobs",
    "sample_dmi_jobs",
    "sample_ddmi_jobs",
    "expected_counts",
    "run_jobs",
]
