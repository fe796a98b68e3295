"""The benchmark under perfbench/ imports gpinv names, patches them through
their modules and overrides experiment fields; these guards fail as soon as a
library change removes, renames or invalidates one of them, instead of at the
next benchmark run."""

import ast
from dataclasses import replace
from pathlib import Path

import gpinv.gp
from gpinv.experiments import load_experiment
from gpinv.forward_models import Rational1D

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_and_patches_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    assert workloads.WORKLOADS
    original = gpinv.gp.GpEnsemble.predict_batch
    with tracing.Tracer().installed(Rational1D()):
        assert gpinv.gp.GpEnsemble.predict_batch is not original
    assert gpinv.gp.GpEnsemble.predict_batch is original


def _toy_overrides() -> dict:
    """perfbench/selftest.py's TOY_OVERRIDES, read without importing the module
    (importing it pins the process's CPU affinity)."""
    tree = ast.parse((PERFBENCH / "selftest.py").read_text())
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["TOY_OVERRIDES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/selftest.py defines no TOY_OVERRIDES")


def test_benchmark_overrides_apply(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    toy = _toy_overrides()
    for work in workloads.WORKLOADS.values():
        spec = load_experiment(workloads.ROOT / "configs" / work.config)
        replace(spec, **dict(work.overrides))  # a spec checks its values when built
        small = replace(spec, **{**dict(work.overrides), **toy})
        assert all(getattr(small, key) == value for key, value in toy.items())
