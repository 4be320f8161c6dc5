"""Interchange formats: INCITS 378 templates and score files."""

from .incits378 import decode, encode

__all__ = ["encode", "decode"]
