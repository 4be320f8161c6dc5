"""Interoperability mitigation methods (the paper's related/future work).

* Ross & Nadgir's thin-plate-spline inter-sensor compensation;
* Poh et al.'s GMM device inference p(d|q) and quality-dependent score
  normalization;
* score-level fusion across fingers and matchers.
"""

from .device_inference import DeviceInferenceModel
from .fusion import (
    d_prime,
    separability_weights,
    sum_fusion,
    weighted_sum_fusion,
)
from .tps import apply_tps_to_template, control_points_from_matches, fit_tps

__all__ = [
    "fit_tps",
    "control_points_from_matches",
    "apply_tps_to_template",
    "DeviceInferenceModel",
    "sum_fusion",
    "weighted_sum_fusion",
    "d_prime",
    "separability_weights",
]
