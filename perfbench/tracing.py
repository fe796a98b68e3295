"""Outside-in span tracing for the benchmark.

Public gpinv names are rebound at the module that calls them, for the
duration of one traced unit of work, so every call into a layer is recorded as
a span: name, start, end, parent span, unit id and adaptive iteration. The
program itself is not modified, and an untraced unit runs the original
functions. Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the time its child spans cover. All
calls run on one thread, so children nest inside their parent and the self
times of one unit's spans add up to its root span's duration.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from unittest import mock

import numpy as np

import gpinv.acquisition
import gpinv.adaptive
import gpinv.experiments
import gpinv.gp
import gpinv.mcmc

# Span record fields, kept as lists so recording stays cheap.
NAME, START, END, PARENT, UNIT, ITERATION, ATTRS = range(7)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unit = -1
        self.iteration = 0
        self._maximize_in_iteration = 0

    # -- recording -----------------------------------------------------
    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.unit,
                           self.iteration, attrs or None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    @contextlib.contextmanager
    def root(self, name: str, unit: int):
        """Root span of one unit of work; resets the per-unit iteration count."""
        self.unit, self.iteration, self._maximize_in_iteration = unit, 0, 0
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][NAME] == name for i in self._stack)

    def wrap(self, name, fn, rows=None, result_attrs=None):
        """Wrap fn in a span; rows(args) and result_attrs(result) add attributes."""

        def traced(*args, **kwargs):
            index = self.open(name, **({"rows": rows(args)} if rows else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if result_attrs is not None:
                self.spans[index][ATTRS] = {**(self.spans[index][ATTRS] or {}),
                                            **result_attrs(result)}
            return result

        return traced

    # -- rebinding -----------------------------------------------------
    @contextlib.contextmanager
    def installed(self, model):
        """Rebind the traced gpinv names (and model.evaluate) for one unit."""
        orig_hyper = gpinv.adaptive.sample_hyperposterior
        orig_max = gpinv.adaptive.maximize_acquisition
        orig_step = gpinv.mcmc.stretch_step
        orig_init = gpinv.mcmc._init_ensemble
        orig_predict = gpinv.gp.GpEnsemble.predict_batch

        def sample_hyperposterior(*args, **kwargs):
            self.iteration += 1
            self._maximize_in_iteration = 0
            return self.wrap("mcmc.hyper", orig_hyper)(*args, **kwargs)

        def maximize_acquisition(state, starts, *args, **kwargs):
            self._maximize_in_iteration += 1
            name = "acq.maximize" if self._maximize_in_iteration == 1 else "acq.confirm"
            return self.wrap(name, orig_max, result_attrs=lambda res: _optima_attrs(
                res, state.bounds))(state, starts, *args, **kwargs)

        def stretch_step(ens, log_prob, *args, **kwargs):
            # Inside the hyperposterior the density is the GP log marginal
            # likelihood; posterior densities are wrapped by the workload.
            hyper = self.inside("mcmc.hyper")
            if hyper:
                log_prob = self.wrap("gp.lml", log_prob, rows=row_count)
            return self.wrap(
                "mcmc.hyper.sweep" if hyper else "post.sweep", orig_step,
                result_attrs=lambda accepted: {"accepted": accepted,
                                               "proposed": ens.positions.shape[0]},
            )(ens, log_prob, *args, **kwargs)

        def init_ensemble(log_prob, *args, **kwargs):
            # The sampler scores its starting walkers before the first sweep;
            # inside the hyperposterior that batch is GP LML work as well.
            if self.inside("mcmc.hyper"):
                log_prob = self.wrap("gp.lml", log_prob, rows=row_count)
            return orig_init(log_prob, *args, **kwargs)

        def predict_batch(ens, thetas):
            return self.wrap("gp.predict", orig_predict, rows=lambda a: row_count(a[1:]))(ens, thetas)

        patches = [
            (gpinv.adaptive, "sample_hyperposterior", sample_hyperposterior),
            (gpinv.adaptive, "maximize_acquisition", maximize_acquisition),
            (gpinv.adaptive, "expected_improvement",
             self.wrap("acq.ei_exact", gpinv.adaptive.expected_improvement)),
            (gpinv.acquisition, "expected_improvement_smoothed",
             self.wrap("acq.ei_grad", gpinv.acquisition.expected_improvement_smoothed)),
            (gpinv.mcmc, "stretch_step", stretch_step),
            (gpinv.mcmc, "_init_ensemble", init_ensemble),
            (gpinv.mcmc, "fit_single", self.wrap("gp.fit", gpinv.mcmc.fit_single)),
            (gpinv.mcmc, "GpEnsemble", self.wrap("gp.ensemble", gpinv.mcmc.GpEnsemble)),
            (gpinv.gp.GpEnsemble, "predict_batch", predict_batch),
            (gpinv.experiments, "d_restricted_loglik_batch",
             self.wrap("lik.surrogate", gpinv.experiments.d_restricted_loglik_batch,
                       rows=row_count)),
            (model, "evaluate", self.wrap("fwd", model.evaluate)),
        ]
        with contextlib.ExitStack() as stack:
            for target, attr, new in patches:
                stack.enter_context(mock.patch.object(target, attr, new))
            yield

    # -- output --------------------------------------------------------
    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the durations of its children."""
        dur = np.array([s[END] - s[START] for s in self.spans])
        covered = np.zeros_like(dur)
        for s, d in zip(self.spans, dur):
            if s[PARENT] >= 0:
                covered[s[PARENT]] += d
        return dur - covered

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "unit", "iteration", "attrs"],
                       "spans": self.spans}, fh)


def row_count(args) -> int:
    return int(np.atleast_2d(args[0]).shape[0])


def _optima_attrs(result, bounds) -> dict:
    """Converged and distinct local optima; optima closer than 1e-4 of the box width coincide."""
    optima = result.local_optima
    scaled = np.array([(o.theta - bounds.lower) / (bounds.upper - bounds.lower) for o in optima])
    distinct = np.unique(np.round(scaled / 1e-4), axis=0).shape[0]
    return {"starts": len(optima), "converged": sum(o.converged for o in optima),
            "distinct": int(distinct)}


def layer_metrics(tracer: Tracer, unit: int) -> dict:
    """Per-layer counts and busy times of one traced unit."""
    spans = [s for s in tracer.spans if s[UNIT] == unit]
    selfs = tracer.self_times()[[i for i, s in enumerate(tracer.spans) if s[UNIT] == unit]]
    count, dur, self_s, attr = defaultdict(int), defaultdict(float), defaultdict(float), defaultdict(int)
    for s, own in zip(spans, selfs):
        name = s[NAME]
        count[name] += 1
        dur[name] += s[END] - s[START]
        self_s[name] += own
        for key, value in (s[ATTRS] or {}).items():
            attr[f"{name}.{key}"] += value

    # Within a posterior unit the first density call scores the best-of-pool
    # candidates; the later ones initialise and drive the walkers.
    pool = next((i for i, s in enumerate(spans) if s[NAME] == "post.density"), None)
    pool_rows = spans[pool][ATTRS]["rows"] if pool is not None else 0
    pool_s = spans[pool][END] - spans[pool][START] if pool is not None else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    acq = ("acq.maximize", "acq.confirm")
    return {
        "mcmc.hyper.calls": count["mcmc.hyper"],
        "mcmc.hyper.s": dur["mcmc.hyper"],
        "mcmc.hyper.sweeps": count["mcmc.hyper.sweep"],
        "mcmc.hyper.self_s": self_s["mcmc.hyper"] + self_s["mcmc.hyper.sweep"],
        "mcmc.hyper.accept_ratio": ratio(attr["mcmc.hyper.sweep.accepted"],
                                         attr["mcmc.hyper.sweep.proposed"]),
        "gp.lml.rows": attr["gp.lml.rows"],
        "gp.lml.s": dur["gp.lml"],
        "gp.fit.count": count["gp.fit"],
        "gp.fit.s": dur["gp.fit"] + dur["gp.ensemble"],
        "gp.predict.rows": attr["gp.predict.rows"],
        "gp.predict.s": dur["gp.predict"],
        "acq.maximize.calls": sum(count[n] for n in acq),
        "acq.maximize.s": sum(dur[n] for n in acq),
        "acq.confirm.calls": count["acq.confirm"],
        "acq.starts": sum(attr[f"{n}.starts"] for n in acq),
        "acq.converged_ratio": ratio(sum(attr[f"{n}.converged"] for n in acq),
                                     sum(attr[f"{n}.starts"] for n in acq)),
        "acq.distinct_ratio": ratio(sum(attr[f"{n}.distinct"] for n in acq),
                                    sum(attr[f"{n}.starts"] for n in acq)),
        "acq.ei_grad.calls": count["acq.ei_grad"],
        "acq.ei_grad.s": dur["acq.ei_grad"],
        "acq.optimizer.self_s": sum(self_s[n] for n in acq),
        "acq.ei_exact.calls": count["acq.ei_exact"],
        "acq.ei_exact.s": dur["acq.ei_exact"],
        "lik.surrogate.rows": attr["lik.surrogate.rows"],
        "lik.surrogate.self_s": self_s["lik.surrogate"],
        "fwd.evals": count["fwd"],
        "fwd.s": dur["fwd"],
        "post.pool.rows": pool_rows,
        "post.pool.s": pool_s,
        "post.sweeps": count["post.sweep"],
        "post.self_s": self_s["post"] + self_s["post.sweep"],
        "post.density.s": dur["post.density"] - pool_s,
        "post.accept_ratio": ratio(attr["post.sweep.accepted"], attr["post.sweep.proposed"]),
        "adaptive.self_s": self_s["adaptive"],
    }


def self_time_breakdown(tracer: Tracer, unit: int) -> dict:
    """Self time per span name for one unit; the values add up to the root span."""
    out = defaultdict(float)
    for s, own in zip(tracer.spans, tracer.self_times()):
        if s[UNIT] == unit:
            out[s[NAME]] += own
    return dict(out)
