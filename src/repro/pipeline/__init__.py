"""Operational verification pipeline — the paper's §V architecture.

Couples the enrollment database, the matcher, and the calibration
toolbox into deployable verification engines: a device-blind baseline
(:class:`Verifier`) and the mitigated :class:`InteropAwareVerifier`
(device inference + TPS compensation + per-pair score normalization).
"""

from .database import EnrolledRecord, TemplateDatabase
from .verifier import InteropAwareVerifier, Verifier

__all__ = [
    "TemplateDatabase",
    "EnrolledRecord",
    "Verifier",
    "InteropAwareVerifier",
]
