"""Self-checks of the benchmark: load generator, tail rule, catalogue, smoke runs.

Run from the root of the repository::

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import loadgen  # noqa: E402
import run as bench_run  # noqa: E402

MIX = [("verify", 0.7), ("identify", 0.2), ("enroll", 0.1)]


def test_same_seed_same_schedule():
    a = loadgen.schedule(7, 50.0, 4.0, MIX, subjects=32, variants=8)
    b = loadgen.schedule(7, 50.0, 4.0, MIX, subjects=32, variants=8)
    assert a == b
    assert [x.due for x in a] == [x.due for x in b]


def test_other_seed_other_schedule():
    a = loadgen.schedule(7, 50.0, 4.0, MIX, subjects=32, variants=8)
    b = loadgen.schedule(8, 50.0, 4.0, MIX, subjects=32, variants=8)
    assert [x.due for x in a] != [x.due for x in b]


def test_schedule_offers_exactly_rate_times_seconds():
    arrivals = loadgen.schedule(3, 52.0, 20.0, MIX, subjects=32, variants=8)
    assert len(arrivals) == 1040
    dues = [a.due for a in arrivals]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 20.0
    assert {a.kind for a in arrivals} == {"verify", "identify", "enroll"}
    assert all(0 <= a.subject < 32 and 0 <= a.variant < 8 for a in arrivals)


@pytest.mark.parametrize("n, pct", [
    (10000, 99.9), (1000, 99.0), (999, 98.0), (500, 98.0), (499, 95.0),
    (200, 95.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None), (2, None),
])
def test_tail_rule_keeps_ten_samples_beyond(n, pct):
    assert harness.tail_percentile(n) == pct


def test_tail_falls_back_to_the_maximum():
    assert harness.tail([1.0, 3.0, 2.0]) == {"pct": 100.0, "value": 3.0}


def _outcomes(late_ms):
    arrivals = loadgen.schedule(1, 10.0, 10.0, [("verify", 1.0)], subjects=4)
    outcomes = [loadgen.Outcome(a) for a in arrivals]
    for o in outcomes:
        o.late = late_ms / 1000.0
    return outcomes


def test_late_generator_marks_the_run_invalid():
    verdict = loadgen.harness_validity(_outcomes(loadgen.LATE_BOUND_MS * 2))
    assert verdict["valid"] is False


def test_punctual_generator_is_valid():
    verdict = loadgen.harness_validity(_outcomes(0.1))
    assert verdict["valid"] is True


def test_open_loop_times_from_due():
    arrivals = loadgen.schedule(2, 40.0, 0.5, [("verify", 1.0)], subjects=1)

    def send(connection, arrival, outcome):
        return connection

    outcomes = loadgen.run_open_loop(arrivals, send, connections=2)
    assert all(o.ok for o in outcomes)
    assert {o.result for o in outcomes} <= {0, 1}
    assert all(o.done >= o.arrival.due for o in outcomes)


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench_run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)


def _run(workload, trace, seconds="3", cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", seconds, "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalogue = bench_run.PER_LAYER if trace else bench_run.END_TO_END
    assert set(result["metrics"]) == set(catalogue)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


ORPHAN_SCRIPT = """
import os, subprocess, sys, time
sys.path.insert(0, sys.argv[1])
import harness
harness.adopt_orphans()
# A child that leaves a grandchild behind, as a resource tracker does.
middle = subprocess.Popen([sys.executable, "-c",
    "import subprocess, sys; p = subprocess.Popen([sys.executable, '-c', "
    "'import time; time.sleep(1.0)']); print(p.pid, flush=True)"],
    stdout=subprocess.PIPE, text=True)
grandchild = int(middle.stdout.readline())
middle.wait()
harness.reap_children(timeout_s=30.0)
print(grandchild)
"""


def test_reap_waits_for_orphaned_grandchildren():
    proc = subprocess.run([sys.executable, "-c", ORPHAN_SCRIPT, str(BENCH_DIR)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    grandchild = int(proc.stdout.split()[-1])
    # Reaped by the benchmark process, so gone even before it exited.
    assert not Path(f"/proc/{grandchild}").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("study", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
