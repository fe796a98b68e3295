"""The benchmark under perfbench/ imports gpinv names, patches them through
their modules and overrides experiment fields; these guards fail as soon as a
library change removes, renames or invalidates one of them, instead of at the
next benchmark run."""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np

import gpinv.gp
from gpinv.experiments import load_experiment
from gpinv.forward_models import HeatSource2D, Rational1D
from gpinv.gp import GpEnsemble, TrainingSet
from gpinv.likelihood import MeasurementModel, d_restricted_loglik_batch

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


def test_benchmark_sees_prediction_inside_the_density(monkeypatch):
    """gp.predict and lik.surrogate.self_s split the surrogate density's time
    only while d_restricted_loglik_batch predicts through GpEnsemble.predict_batch."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    rng = np.random.default_rng(0)
    training = TrainingSet.from_data(rng.uniform(-1, 1, (6, 2)), rng.normal(0, 1, (6, 3)))
    ens = GpEnsemble(training, [[1.0, 0.5, 0.7], [1.3, 0.9, 0.4]])
    meas = MeasurementModel(rng.normal(0, 1, 3), np.full(3, 0.1))
    tracer = tracing.Tracer()
    with tracer.installed(Rational1D()):
        d_restricted_loglik_batch(rng.uniform(-1, 1, (5, 2)), ens, meas)
    rows = [span[tracing.ATTRS]["rows"] for span in tracer.spans if span[tracing.NAME] == "gp.predict"]
    assert sum(rows) > 0


def test_benchmark_wraps_heat_model_solves(monkeypatch):
    """The benchmark's fwd and fwd.data spans patch evaluate and fine_evaluate on
    the model instance; both must stay patchable there and be restored after."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    ctx = workloads.WORKLOADS["heat-adaptive"].setup(tracer, unit=-1)
    assert isinstance(ctx.model, HeatSource2D)
    with tracer.installed(ctx.model):
        ctx.model.evaluate([0.25, 0.75])
    assert [span[tracing.NAME] for span in tracer.spans] == ["setup", "fwd.data", "fwd"]
    assert "evaluate" not in vars(ctx.model) and "fine_evaluate" not in vars(ctx.model)


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


def test_traced_adaptive_unit_reads_every_seam(monkeypatch):
    """One heat-adaptive unit at the self-test's toy sizes counts work in every
    layer the loop passes through; a seam whose patch target the library no
    longer calls reads 0."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    heat = workloads.WORKLOADS["heat-adaptive"]
    work = replace(heat, overrides=tuple({**dict(heat.overrides), **_toy_overrides()}.items()))
    tracer = tracing.Tracer()
    outcome = work.run(work.setup(tracer, unit=-1), seed=0, tracer=tracer, unit=0)
    assert not outcome.problems
    metrics = tracing.layer_metrics(tracer, 0)
    for name in ("acq.ei_grad.calls", "acq.ei_exact.calls", "gp.lml.rows", "gp.predict.rows",
                 "mcmc.hyper.calls", "mcmc.hyper.sweeps", "fwd.evals"):
        assert metrics[name] > 0, name


def test_traced_posterior_unit_counts_every_sweep(monkeypatch):
    """One heat-surrogate-posterior unit at the self-test's toy sizes runs
    2 ceil(n / walkers) sweeps; a sampler that steps past the patched
    stretch_step reads fewer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    post = workloads.WORKLOADS["heat-surrogate-posterior"]
    toy = _toy_overrides()
    work = replace(post, overrides=tuple({**dict(post.overrides), **toy}.items()), n_samples=200)
    tracer = tracing.Tracer()
    outcome = work.run(work.setup(tracer, unit=-1), seed=1, tracer=tracer, unit=0)
    assert not outcome.problems
    sweeps = tracing.layer_metrics(tracer, 0)["post.sweeps"]
    assert sweeps == 2 * -(-200 // toy["posterior_walkers"])
