"""Documentation quality gates.

Every public module, class and function in the library must carry a
docstring — the deliverable says "doc comments on every public item",
and this meta-test enforces it so regressions cannot slip in.  The
serving metric tables in ``docs/observability.md`` must match the
metric declarations they are generated from.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.service.metrics import catalogue_rows

SKIP_MODULES = {"repro.__main__"}


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module.__name__} lacks a module docstring"
    )


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_callables_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
            continue
        if inspect.isclass(obj):
            for method_name, method in vars(obj).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if not (method.__doc__ and method.__doc__.strip()):
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"{module.__name__} has undocumented public items: {undocumented}"
    )


def test_package_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_observability_metric_tables_match_declarations():
    doc = Path(__file__).resolve().parents[1] / "docs" / "observability.md"
    lines = doc.read_text().splitlines()
    telemetry, exposition = catalogue_rows()
    committed_telemetry = [
        line for line in lines
        if line.startswith(("| `service.", "| `index."))
    ]
    committed_exposition = [
        line for line in lines if line.startswith("| `repro_")
    ]
    hint = "regenerate the rows with repro.service.metrics.catalogue_rows()"
    assert committed_telemetry == telemetry, hint
    assert committed_exposition == exposition, hint
