"""Regenerate ``perfbench/pins.json``: the study's pinned outputs per seed.

Usage (from the root of the repository)::

    python3 perfbench/pin_study.py

Runs one cold study of the benchmark's dataset at the benchmark's size
and records the DMG/DDMG/DMI/DDMI score-set digests and the Table 5
FNMR matrix.  The ``study`` workload checks every repetition against
them, so a change that alters the study's outputs fails the benchmark
until the pins are regenerated on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import study_bench  # noqa: E402
from params import STUDY  # noqa: E402


def main() -> int:
    root = harness.repo_root()
    harness.require_program(root)
    work = harness.workdir(root, "pins")
    try:
        pins = study_bench.pin(work, STUDY["subjects"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    study_bench.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"pinned {sorted(pins)} in {study_bench.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
