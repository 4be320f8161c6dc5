"""Acquisition simulation: devices D0–D4 of the paper's Table 1.

Replaces the physical capture hardware with parameterized sensor models.
The package's central idea is the *device signature warp*: a fixed
smooth geometric distortion unique to each device that cancels within a
device and persists across devices — the study's interoperability
mechanism, made explicit and ablatable.
"""

from .protocol import ProtocolSettings, build_sensor
from .registry import DEVICE_ORDER, DEVICE_PROFILES, LIVESCAN_DEVICES

__all__ = [
    "ProtocolSettings",
    "build_sensor",
    "DEVICE_PROFILES",
    "DEVICE_ORDER",
    "LIVESCAN_DEVICES",
]
