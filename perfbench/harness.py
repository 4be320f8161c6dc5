"""Shared plumbing of the benchmark: percentiles, stamps, processes, paths.

Nothing here knows about a particular workload.  The helpers are small
on purpose: every number the benchmark reports is either a wall-clock
time taken around a public call, or a value read from instrumentation
the program already has (telemetry spans and counters, the request
log, ``/metrics``).
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Percentiles the tail rule may pick, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: Samples a percentile needs beyond it before it may be reported.
TAIL_MIN_BEYOND = 10


def repo_root() -> Path:
    """The checkout the benchmark runs in (the current directory)."""
    return Path.cwd()


def require_program(root: Path) -> None:
    """Exit non-zero when the checkout does not hold the program's source.

    The benchmark builds nothing itself; it imports ``repro`` from
    ``src/``.  A directory holding only the benchmark must fail fast
    rather than print a result.
    """
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {root / 'src' / 'repro'}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    source = str(root / "src")
    if source not in sys.path:
        sys.path.insert(0, source)


def workdir(root: Path, workload: str) -> Path:
    """A fresh scratch directory for one run, inside the checkout."""
    path = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when even the median is unsupported (fewer than 20 samples).
    """
    for pct in TAIL_LADDER:
        # Rounded: 100 - 99.9 is not exactly 0.1 in binary.
        if round(n * (100.0 - pct) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (0.0 for an empty sample)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float]) -> Dict[str, float]:
    """``{"pct": p, "value": v}`` by the tail rule; the maximum otherwise."""
    pct = tail_percentile(len(values))
    if pct is None:
        return {"pct": 100.0, "value": max(values) if len(values) else 0.0}
    return {"pct": pct, "value": percentile(values, pct)}


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when the base is empty."""
    return float(numerator) / float(denominator) if denominator else 0.0


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest child process reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB (0.0 when unreadable)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


#: ``prctl`` option that makes a process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant that outlives its parent.

    Helpers the program starts (multiprocessing's resource tracker, a
    server's worker pool) exit only after their own parent has gone;
    adopted, they come back to this process, which can wait for them
    instead of leaving them to the init process.  A no-op off Linux.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    """Pids of this process's live children (adopted ones included)."""
    pids: List[int] = []
    for task in Path(f"/proc/{os.getpid()}/task").glob("*"):
        try:
            pids.extend(int(p) for p in (task / "children").read_text().split())
        except (OSError, ValueError):
            pass
    return pids


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait until this process has no child left; kill stragglers at the deadline."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout_s)
    # The resource tracker exits when its pipe closes, which would
    # otherwise happen only at the interpreter's exit; _stop closes the
    # pipe and waits for it.
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout_s
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline and not killed:
            for pid in _child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.02)


def git_describe(root: Path) -> str:
    """``git describe`` of the checkout, or ``"unknown"`` outside git."""
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def stamp(root: Path, workload: str, seed: int, params: dict, trace: bool) -> dict:
    """The provenance every record carries."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "params": params,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_describe": git_describe(root),
    }


def clean_env(root: Path) -> Dict[str, str]:
    """Environment for program subprocesses: no ``REPRO_*`` overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ServerProcess:
    """One ``repro serve`` subprocess, started and stopped cleanly.

    The server binds an ephemeral port and announces it on stdout; the
    time from spawn to that line is the server's load time (imports,
    gallery reload, WAL replay, index restore).  :meth:`stop` reads the
    process's peak RSS first, then sends SIGINT — the CLI's clean
    shutdown path, which also writes ``--manifest-out`` — and waits.
    """

    def __init__(self, root: Path, args: List[str], log_path: Path) -> None:
        self._root = root
        self._args = args
        self._log_path = log_path
        self._proc: Optional[subprocess.Popen] = None
        self._lines: List[str] = []
        self._reader: Optional[threading.Thread] = None
        self.port = 0
        self.load_s = 0.0
        self.peak_rss_mb = 0.0

    def start(self, timeout_s: float = 120.0) -> None:
        started = time.perf_counter()
        self._stderr = self._log_path.open("w")
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", *self._args],
            cwd=self._root, env=clean_env(self._root),
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        ready = threading.Event()

        def _read() -> None:
            assert self._proc is not None and self._proc.stdout is not None
            for line in self._proc.stdout:
                self._lines.append(line)
                if "listening on http://" in line and not ready.is_set():
                    self.port = int(line.split("http://", 1)[1].split()[0]
                                    .rsplit(":", 1)[1])
                    ready.set()
            ready.set()

        self._reader = threading.Thread(target=_read, daemon=True)
        self._reader.start()
        if not ready.wait(timeout_s) or self.port == 0:
            self.stop()
            raise RuntimeError(
                f"repro serve did not start: {''.join(self._lines)[-2000:]} "
                f"(stderr in {self._log_path})"
            )
        self.load_s = time.perf_counter() - started

    def stop(self, timeout_s: float = 60.0) -> None:
        if self._proc is None:
            return
        if self._proc.poll() is None:
            self.peak_rss_mb = process_peak_rss_mb(self._proc.pid)
            self._proc.send_signal(signal.SIGINT)
            try:
                self._proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait(timeout=timeout_s)
        if self._reader is not None:
            self._reader.join(timeout=timeout_s)
        self._stderr.close()
        self._proc = None

