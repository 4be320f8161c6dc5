"""repro — reproduction of "Interoperability in Fingerprint Recognition:
A Large-Scale Empirical Study" (Lugini, Marasco, Cukic & Gashi, DSN 2013).

The paper measures how fingerprint match scores and error rates degrade
when enrollment and verification use *different* capture devices.  This
library rebuilds the entire measurement apparatus — synthetic
fingerprints, parameterized sensor models for the study's five capture
sources, an NFIQ-style quality assessor, a minutiae matcher — and the
study engine that regenerates every table and figure of the paper.

The supported import surface is :mod:`repro.api`::

    from repro.api import run_study, StudyConfig

    result = run_study(StudyConfig(n_subjects=60))
    score_sets = result.score_sets            # DMG / DMI / DDMG / DDMI
    table5 = result.fnmr_matrix(1e-4)         # FNMR @ FMR 0.01%
    table4 = result.kendall_matrix()          # rank-correlation p-values

The facade entry points (:func:`~repro.api.run_study`,
:func:`~repro.api.load_scores`, :func:`~repro.api.compare_devices`) are
also re-exported here.  The historic top-level names
(``from repro import InteroperabilityStudy`` etc.) keep working but emit
:class:`DeprecationWarning`; ``docs/api.md`` has the migration table.

``import repro`` loads nothing heavy: :mod:`repro.api`, the facade names
and the subpackages resolve on first touch.  numpy therefore loads after
the process owner's entry point (the ``repro`` CLI) has chosen its BLAS
thread count.
"""

import warnings

__version__ = "1.1.0"

#: Names that used to be exported eagerly from this module.  They now
#: resolve through ``__getattr__`` so that touching one emits a
#: DeprecationWarning pointing at the stable surface, ``repro.api``.
_LEGACY_NAMES = frozenset(
    {
        "InteroperabilityStudy",
        "ScoreSet",
        "FnmrPredictor",
        "TemplateDatabase",
        "EnrolledRecord",
        "Verifier",
        "InteropAwareVerifier",
        "StudyConfig",
        "SeedTree",
        "ScoreCache",
        "ReproError",
        "RunManifest",
        "enable_telemetry",
        "disable_telemetry",
        "get_recorder",
        "configure_logging",
        "Population",
        "BioEngineMatcher",
        "RidgeGeometryMatcher",
        "Template",
        "Minutia",
        "QualityFeatures",
        "nfiq_level",
        "Impression",
        "OpticalSensor",
        "InkCardSensor",
        "build_sensor",
        "DEVICE_ORDER",
        "DEVICE_PROFILES",
        "LIVESCAN_DEVICES",
    }
)


def __getattr__(name: str):
    if not name.startswith("_"):
        from importlib import import_module

        # Loads numpy and every subpackage, as the eager import used to.
        api = import_module(".api", __name__)

        if name in _LEGACY_NAMES:
            warnings.warn(
                f"importing {name!r} from 'repro' is deprecated; "
                f"use 'from repro.api import {name}' instead",
                DeprecationWarning,
                stacklevel=2,
            )
            return getattr(api, name)
        if name in __all__ and name not in globals():
            globals()[name] = getattr(api, name)
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    from importlib import import_module

    import_module(".api", __name__)  # binds the subpackages it loads
    return sorted(set(globals()) | set(__all__))


__all__ = [
    # stable facade
    "api",
    "run_study",
    "load_scores",
    "compare_devices",
    "StudyResult",
    "DeviceComparison",
    "__version__",
    # legacy names (deprecated — import from repro.api instead)
    "InteroperabilityStudy",
    "ScoreSet",
    "FnmrPredictor",
    "TemplateDatabase",
    "EnrolledRecord",
    "Verifier",
    "InteropAwareVerifier",
    "StudyConfig",
    "SeedTree",
    "ScoreCache",
    "ReproError",
    "RunManifest",
    "enable_telemetry",
    "disable_telemetry",
    "get_recorder",
    "configure_logging",
    "Population",
    "BioEngineMatcher",
    "RidgeGeometryMatcher",
    "Template",
    "Minutia",
    "QualityFeatures",
    "nfiq_level",
    "Impression",
    "OpticalSensor",
    "InkCardSensor",
    "build_sensor",
    "DEVICE_ORDER",
    "DEVICE_PROFILES",
    "LIVESCAN_DEVICES",
]
