"""The benchmark under perfbench/ imports gpinv names and patches them through
their modules; this guard fails as soon as a library change removes or renames
one of them, instead of at the next benchmark run."""

from pathlib import Path

import gpinv.gp
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
