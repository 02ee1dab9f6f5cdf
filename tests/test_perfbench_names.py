"""Every callable the benchmark traces still exists under its traced name.

perfbench/run.py names the callables it wraps as "<module>.<attribute path>"
(PER_LAYER, and PREDICTIONS as "<name>.calls"); the tracer resolves each one
from dfipp.<module> by attribute lookup.  A refactor that renames or deletes a
traced callable fails here instead of crashing `run.py --trace 1`.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _traced_names() -> list[str]:
    saved_path = list(sys.path)
    added = [name for name in ("perfbench_run", "workloads") if name not in sys.modules]
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
        run = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = run  # its dataclasses look their module up here
        spec.loader.exec_module(run)
    finally:  # run.py puts perfbench/ on sys.path and imports its workloads module
        sys.path[:] = saved_path
        for name in added:
            sys.modules.pop(name, None)
    names = set(run.PER_LAYER)
    for metrics in run.PREDICTIONS.values():
        names.update(m.removesuffix(".calls") for m in metrics if m.endswith(".calls"))
    return sorted(names)


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves_to_a_callable(name):
    modname, *path = name.split(".")
    owner = importlib.import_module(f"dfipp.{modname}")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_run_reads_the_lagrange_basis_cache():
    # `run.py --trace 1` reads dfipp.field.lagrange_basis.cache_info() directly for
    # field.lagrange_basis.hit_ratio, outside the traced-name list above
    assert "api.field.lagrange_basis" in RUN_PY.read_text()
    info = importlib.import_module("dfipp.field").lagrange_basis.cache_info()
    assert info.hits >= 0 and info.misses >= 0
