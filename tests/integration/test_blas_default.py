"""The CLI defaults numpy's BLAS to one thread; ``import repro`` loads no numpy.

Each check runs in a fresh interpreter, because the default only acts
before numpy loads and this test process has loaded it long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(code: str, **blas_env: str) -> str:
    """Run ``code`` with only ``blas_env`` among the BLAS variables set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(blas_env, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip()


READ_DEFAULT = (
    "import json, os, repro.cli as cli; "
    "print(json.dumps([os.environ.get(n) for n in cli.BLAS_THREAD_VARIABLES]"
    " + [cli.BLAS_THREADS]))"
)


class TestLazyPackageImport:
    def test_import_repro_leaves_numpy_unloaded(self):
        out = run_python(
            "import sys, repro; print('numpy' in sys.modules, repro.__version__)"
        )
        assert out == f"False {repro.__version__}"

    def test_import_repro_exposes_only_version(self):
        out = run_python(
            "import json, sys, repro\n"
            "try:\n"
            "    from repro import Template\n"
            "    legacy = 'imported'\n"
            "except ImportError:\n"
            "    legacy = 'ImportError'\n"
            "print(json.dumps({'public': sorted(n for n in dir(repro)\n"
            "                                   if not n.startswith('_')),\n"
            "    'version': repro.__version__, 'legacy': legacy,\n"
            "    'numpy': 'numpy' in sys.modules}))"
        )
        got = json.loads(out)
        assert got == {"public": [], "version": repro.__version__,
                       "legacy": "ImportError", "numpy": False}


class TestCliBlasDefault:
    def test_clean_environment_gets_one_thread(self):
        assert json.loads(run_python(READ_DEFAULT)) == ["1", None, None, "1"]

    def test_explicit_openblas_choice_is_kept(self):
        got = json.loads(run_python(READ_DEFAULT, OPENBLAS_NUM_THREADS="3"))
        assert got == ["3", None, None, "3"]

    def test_omp_choice_leaves_openblas_unset(self):
        got = json.loads(run_python(READ_DEFAULT, OMP_NUM_THREADS="2"))
        assert got == [None, None, "2", "OMP_NUM_THREADS=2"]

    def test_numpy_loaded_first_is_reported_not_claimed(self):
        got = json.loads(run_python("import numpy; " + READ_DEFAULT))
        assert got == [None, None, None, "default (numpy loaded first)"]

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs Linux /proc"
    )
    def test_default_reaches_openblas(self):
        # OpenBLAS starts its worker threads when numpy loads; with the
        # default it starts none, whatever the core count.
        out = run_python(
            "import os, repro.cli; print(len(os.listdir('/proc/self/task')))"
        )
        assert out == "1"
