"""The benchmark's workloads: set-up, one unit of work, and its correctness checks.

Every workload calls the library the way `scripts/run_*.py` and the acceptance
suite do. A unit of work is one `run_adaptive` call or one `sample_posterior`
call; the runner repeats units and times each one.

The adaptive workloads pin the protocol seed to 0, the reference run of the
ROADMAP baseline (9 iterations, 12 points). A different seed gives a
different design trajectory and so different work: over seeds 0-9 one heat
run adds 4-8 points and takes 4.0-13.0 s (2-vCPU x86 machine, one BLAS
thread), a spread no regression bound can absorb. The posterior workloads do a fixed amount of work for any seed, so
they take the sampler seed from the command line.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from unittest import mock

import numpy as np

from gpinv.adaptive import run_adaptive
from gpinv.cli import load_surrogate
from gpinv.experiments import load_experiment, surrogate_loglik_rows, true_loglik_rows
from gpinv.likelihood import misfit_of_outputs
from gpinv.mcmc import BoxPrior
from gpinv.posterior import hpd_region, sample_posterior

from tracing import row_count

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "heat-seed0"
PROTOCOL_SEED = 0
COMPLETED = ("threshold", "zero-improvement", "budget")
# Acceptance criterion 7's reference 95 % HPD box for the heat problem.
HEAT_HPD_REFERENCE = np.array([[0.19, 0.38], [0.61, 0.83]])


@dataclass
class Context:
    """What set-up leaves for the units: the model, its data, and an emulator."""

    spec: object
    model: object
    meas: object
    ensemble: object = None
    timings: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one unit did and which of its checks failed."""

    wall_s: float
    forward_evals: int = 0
    digest: str = ""
    iter_s: list = field(default_factory=list)
    iterations: int = 0
    g_final: float | None = None
    hpd_dev: float | None = None
    problems: list = field(default_factory=list)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                          # INI file under configs/
    overrides: tuple = ()                # (field, value) pairs applied to the config
    likelihood: str | None = None        # posterior workloads: "surrogate" | "true"
    n_samples: int = 0

    def setup(self, tracer=None, unit: int = -1) -> Context:
        """Config + model, then the fine-grid data, then the stored emulator if used."""
        tic = time.perf_counter()
        spec = replace(load_experiment(ROOT / "configs" / self.config), **dict(self.overrides))
        model = spec.build_model()
        built = time.perf_counter()
        traced = contextlib.ExitStack()
        if tracer is not None:
            traced.enter_context(tracer.root("setup", unit))
            traced.enter_context(mock.patch.object(
                model, "fine_evaluate", tracer.wrap("fwd.data", model.fine_evaluate)))
        with traced:
            meas = spec.measurement(model)
        measured = time.perf_counter()
        ensemble = load_surrogate(FIXTURE)[0] if self.likelihood == "surrogate" else None
        done = time.perf_counter()
        return Context(spec, model, meas, ensemble, {
            "setup.model_s": built - tic,
            "setup.data_s": measured - built,
            "setup.surrogate_s": done - measured,
        })

    def run(self, ctx: Context, seed: int, tracer=None, unit: int = 0) -> Outcome:
        if self.likelihood is None:
            return self._run_adaptive(ctx, tracer, unit)
        return self._run_posterior(ctx, seed, tracer, unit)

    def _traced(self, ctx, tracer, root: str, unit: int):
        stack = contextlib.ExitStack()
        if tracer is not None:
            stack.enter_context(tracer.installed(ctx.model))
            stack.enter_context(tracer.root(root, unit))
        return stack

    def _run_adaptive(self, ctx: Context, tracer, unit: int) -> Outcome:
        cfg = ctx.spec.adaptive_config(seed=PROTOCOL_SEED)
        before = ctx.model.n_evals
        tic = time.perf_counter()
        with self._traced(ctx, tracer, "adaptive", unit):
            result = run_adaptive(ctx.model, ctx.meas, cfg)
        wall = time.perf_counter() - tic

        record, training = result.record, result.training
        evals = ctx.model.n_evals - before
        problems = []
        if record.termination not in COMPLETED:
            problems.append(f"termination {record.termination!r}")
        if evals != record.n_forward_evals:
            problems.append(f"model made {evals} evaluations, record says {record.n_forward_evals}")
        if np.any(np.diff(record.g_min_history) > 0.0):
            problems.append("g_min history increases")
        if np.unique(training.inputs, axis=0).shape[0] != training.n_train:
            problems.append("design points are not distinct")
        if not np.all(np.isfinite(training.raw_outputs)):
            problems.append("non-finite forward outputs in the design")
        return Outcome(
            wall_s=wall,
            forward_evals=evals,
            digest=_digest(record.to_json().encode()),
            iter_s=[it.wall_time_s for it in record.iterations],
            iterations=len(record.iterations),
            g_final=min(misfit_of_outputs(row, ctx.meas) for row in training.raw_outputs),
            problems=problems,
        )

    def _run_posterior(self, ctx: Context, seed: int, tracer, unit: int) -> Outcome:
        spec = ctx.spec
        if self.likelihood == "surrogate":
            loglik = surrogate_loglik_rows(ctx.ensemble, ctx.meas)
        else:
            loglik = true_loglik_rows(ctx.model, ctx.meas)
        if tracer is not None:
            loglik = tracer.wrap("post.density", loglik, rows=row_count)
        prior = BoxPrior(spec.bounds.lower, spec.bounds.upper)
        before = ctx.model.n_evals
        tic = time.perf_counter()
        with self._traced(ctx, tracer, "post", unit):
            result = sample_posterior(loglik, prior, self.n_samples, seed=seed,
                                      n_walkers=spec.posterior_walkers, source=self.likelihood)
        wall = time.perf_counter() - tic

        samples = result.samples
        evals = ctx.model.n_evals - before
        problems = []
        if samples.shape != (self.n_samples, prior.dim):
            problems.append(f"sample array has shape {samples.shape}")
        if not (np.all(np.isfinite(samples)) and np.all(prior.contains(samples))):
            problems.append("samples outside the prior box or non-finite")
        hpd = hpd_region(result)
        if not hpd.contains(np.array(spec.theta_true))[0]:
            problems.append("95 % HPD box misses theta_true")
        if self.likelihood == "surrogate" and evals:
            problems.append(f"surrogate posterior made {evals} forward evaluations")
        return Outcome(
            wall_s=wall,
            forward_evals=evals,
            digest=_digest(samples.tobytes()),
            hpd_dev=float(np.abs(np.array(hpd.intervals()) - HEAT_HPD_REFERENCE).max()),
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (
    Workload("heat-adaptive", "heat.cfg"),
    Workload("heat-surrogate-posterior", "heat.cfg", likelihood="surrogate", n_samples=20_000),
    Workload("heat-true-posterior", "heat.cfg", likelihood="true", n_samples=2_000),
    # The permeability protocol has 500 Sobol starts (47 s for the first
    # iteration here); 100 keep the same 9-D work per start in 13 s.
    Workload("permeability-acquisition", "permeability.cfg",
             overrides=(("n_max", 1), ("n_starts", 100))),
)}
