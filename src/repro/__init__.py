"""repro — reproduction of "Interoperability in Fingerprint Recognition:
A Large-Scale Empirical Study" (Lugini, Marasco, Cukic & Gashi, DSN 2013).

The paper measures how fingerprint match scores and error rates degrade
when enrollment and verification use *different* capture devices.  This
library rebuilds the entire measurement apparatus — synthetic
fingerprints, parameterized sensor models for the study's five capture
sources, an NFIQ-style quality assessor, a minutiae matcher — and the
study engine that regenerates every table and figure of the paper.

The import surface is :mod:`repro.api`::

    from repro.api import run_study, StudyConfig

    result = run_study(StudyConfig(n_subjects=60))
    score_sets = result.score_sets            # DMG / DMI / DDMG / DDMI
    table5 = result.fnmr_matrix(1e-4)         # FNMR @ FMR 0.01%
    table4 = result.kendall_matrix()          # rank-correlation p-values

``import repro`` loads nothing else, so numpy loads only after the
process owner's entry point (the ``repro`` CLI) has chosen its BLAS
thread count.
"""

__version__ = "2.0.0"
