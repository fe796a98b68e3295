"""The adaptive design loop.

Each iteration redraws the hyperparameter posterior on the current design,
finds the input with the largest expected improvement in fit, and either
stops (the best possible improvement is below a fraction of the incumbent
misfit) or pays for one forward-model evaluation there. The first chain
starts uniformly in the hyperparameter box; every later one, the budget refit
included, starts from the previous iteration's hyperparameter rows, and each
chain ends once its walkers settle (`mcmc.SETTLE_EVERY`), at most n_steps
sweeps. The record keeps enough of the trajectory to audit monotonicity and
budget accounting afterwards.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .acquisition import (
    SCREEN_TOP,
    AcquisitionState,
    expected_improvement,
    maximize_acquisition,
    screen_acquisition,
)
from .designs import DesignBox, sobol
from .gp import GpEnsemble, TrainingSet
from .likelihood import MeasurementModel
from .mcmc import check_walkers, sample_hyperposterior

log = logging.getLogger(__name__)

RECORD_SCHEMA_VERSION = 1
EPS_THRESH = 0.01  # stop once the best expected improvement is under this fraction of g_min


@dataclass(frozen=True)
class AdaptiveConfig:
    """The protocol of one adaptive run; `ExperimentSpec.adaptive_config` sets it."""

    bounds: DesignBox
    hyper_prior: DesignBox
    initial_design: np.ndarray            # (n0, p) points inside bounds
    n_max: int                            # added-point budget (iterations)
    n_walkers: int
    n_steps: int                          # sweep cap per hyperposterior chain
    n_starts: int                         # multistart seeds: a grid in 1-D, Sobol points otherwise
    extra_starts: int                     # > 0 with p >= 2: screen + second sweep before accepting a stop
    seed: int

    def __post_init__(self):
        if self.hyper_prior.dim != self.bounds.dim + 1:
            raise ValueError(f"hyper_prior has {self.hyper_prior.dim} bounds, need "
                             f"{self.bounds.dim + 1} (sigma_c and one length scale per parameter)")
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be at least 1, got {self.n_starts}")
        if self.extra_starts < 0:
            raise ValueError(f"extra_starts must be at least 0, got {self.extra_starts}")
        check_walkers("n_walkers", self.n_walkers, self.hyper_prior.dim)
        design = np.atleast_2d(np.asarray(self.initial_design, dtype=float))
        object.__setattr__(self, "initial_design", design)
        if design.shape[0] < 1 or not np.all(self.bounds.contains(design)):
            raise ValueError("initial design must be nonempty and inside the bounds")

    @property
    def confirm(self) -> bool:
        """Whether a stop is checked by `confirm_stop` before it is accepted."""
        return self.extra_starts > 0 and self.bounds.dim >= 2


@dataclass
class IterationRecord:
    k: int
    theta: np.ndarray
    improvement: float
    g_min: float
    psi_mean: np.ndarray
    psi_std: np.ndarray
    accepted: bool           # True when theta joined the design
    wall_time_s: float

    @property
    def relative_improvement(self) -> float:
        return self.improvement / self.g_min if self.g_min > 0 else float("inf")


@dataclass
class RunRecord:
    """Full trace of one adaptive run."""

    initial_inputs: np.ndarray
    iterations: list[IterationRecord] = field(default_factory=list)
    termination: str = "running"
    seed: int = 0
    eps_thresh: float = EPS_THRESH
    n_max: int = 0

    @property
    def g_min_history(self) -> np.ndarray:
        return np.array([it.g_min for it in self.iterations])

    @property
    def added_inputs(self) -> np.ndarray:
        rows = [it.theta for it in self.iterations if it.accepted]
        p = self.initial_inputs.shape[1]
        return np.array(rows).reshape(-1, p)

    @property
    def n_forward_evals(self) -> int:
        return self.initial_inputs.shape[0] + self.added_inputs.shape[0]

    def to_json_dict(self) -> dict:
        """The deterministic record; per-iteration wall times go to timings.csv only."""
        iterations = [{
            "k": it.k,
            "theta": list(map(float, it.theta)),
            "improvement": it.improvement,
            "g_min": it.g_min,
            "psi_mean": list(map(float, it.psi_mean)),
            "psi_std": list(map(float, it.psi_std)),
            "accepted": it.accepted,
        } for it in self.iterations]
        return {
            "schema_version": RECORD_SCHEMA_VERSION,
            "seed": self.seed,
            "eps_thresh": self.eps_thresh,
            "n_max": self.n_max,
            "termination": self.termination,
            "initial_inputs": [list(map(float, row)) for row in self.initial_inputs],
            "iterations": iterations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        doc = json.loads(text)
        if doc.get("schema_version") != RECORD_SCHEMA_VERSION:
            raise ValueError(f"unsupported record schema {doc.get('schema_version')!r}")
        record = cls(
            initial_inputs=np.array(doc["initial_inputs"], dtype=float),
            termination=doc["termination"],
            seed=doc["seed"],
            eps_thresh=doc["eps_thresh"],
            n_max=doc["n_max"],
        )
        for entry in doc["iterations"]:
            record.iterations.append(IterationRecord(
                k=entry["k"],
                theta=np.array(entry["theta"], dtype=float),
                improvement=entry["improvement"],
                g_min=entry["g_min"],
                psi_mean=np.array(entry["psi_mean"], dtype=float),
                psi_std=np.array(entry["psi_std"], dtype=float),
                accepted=entry["accepted"],
                wall_time_s=float("nan"),  # wall times live in timings.csv
            ))
        return record


@dataclass
class AdaptiveResult:
    ensemble: GpEnsemble
    training: TrainingSet
    record: RunRecord


def make_starts(cfg: AdaptiveConfig) -> np.ndarray:
    """Multistart seed points: an even grid over a 1-D box, else Sobol points
    past the degenerate corner."""
    if cfg.bounds.dim == 1:
        return np.linspace(cfg.bounds.lower[0], cfg.bounds.upper[0], cfg.n_starts)[:, None]
    return sobol(cfg.n_starts, cfg.bounds, skip=1)


def make_extra_starts(cfg: AdaptiveConfig) -> np.ndarray:
    return sobol(cfg.extra_starts, cfg.bounds, skip=1 + cfg.n_starts)


def confirm_stop(state: AcquisitionState, extra: np.ndarray) -> tuple[np.ndarray, float]:
    """Best point the stop check finds, with its exact expected improvement.

    Screens exact EI in one batch, then ascends from the extra starts followed
    by the SCREEN_TOP best screened candidates. The better of the best
    ascended point and the best screened candidate wins.
    """
    candidates, values = screen_acquisition(state)
    top = np.argsort(-values, kind="stable")[:SCREEN_TOP]
    ascent = maximize_acquisition(state, np.vstack([extra, candidates[top]]))
    ascended = float(expected_improvement(ascent.theta, state)[0])
    if values[top[0]] > ascended:
        return candidates[top[0]].copy(), float(values[top[0]])
    return ascent.theta, ascended


def _iteration_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def run_adaptive(model, meas: MeasurementModel, cfg: AdaptiveConfig) -> AdaptiveResult:
    """Run the adaptive loop to termination.

    A stop is accepted only after `confirm_stop` (when `cfg.confirm`): a
    batched exact-EI screen plus a second ascent, and the run goes on if any
    screened or ascended point reaches the threshold. Iterations that do not
    stop search from `make_starts` alone.

    Termination reasons: "threshold" (best improvement under
    EPS_THRESH * g_min), "zero-improvement" (every multistart found exactly
    zero, and so did the screen and the confirming ascent where they ran),
    "budget" (n_max points added), "duplicate-point" (the selected input is
    already in the design; nothing evaluated, partial record returned) or
    "forward-failure" (the model raised at a selected input; partial record
    returned).
    """
    outputs = np.array([model.evaluate(row) for row in cfg.initial_design])
    training = TrainingSet.from_data(cfg.initial_design, outputs)
    record = RunRecord(
        initial_inputs=cfg.initial_design.copy(),
        seed=cfg.seed, n_max=cfg.n_max,
    )

    starts = make_starts(cfg)
    extra = make_extra_starts(cfg) if cfg.confirm else None
    ensemble = None
    for k in range(1, cfg.n_max + 1):
        tic = time.perf_counter()
        ensemble = sample_hyperposterior(
            training, cfg.hyper_prior, cfg.n_walkers, cfg.n_steps,
            seed=_iteration_seed(cfg.seed, k),
            init_positions=None if ensemble is None else ensemble.hyperparams,
        )
        state = AcquisitionState.from_ensemble(ensemble, meas, cfg.bounds)
        theta = maximize_acquisition(state, starts).theta
        improvement = float(expected_improvement(theta, state)[0])
        stop = improvement < EPS_THRESH * state.g_min
        if stop and extra is not None:
            confirm_theta, confirm_improvement = confirm_stop(state, extra)
            if confirm_improvement > improvement:
                theta, improvement = confirm_theta, confirm_improvement
                stop = improvement < EPS_THRESH * state.g_min

        psis = ensemble.hyperparams
        entry = IterationRecord(
            k=k, theta=theta.copy(), improvement=improvement, g_min=state.g_min,
            psi_mean=psis.mean(axis=0), psi_std=psis.std(axis=0),
            accepted=False, wall_time_s=time.perf_counter() - tic,
        )
        record.iterations.append(entry)

        if stop:
            record.termination = "zero-improvement" if improvement == 0.0 else "threshold"
            log.info("iteration %d: stopping (%s), I=%.3e, g_min=%.4f, %d sweeps",
                     k, record.termination, improvement, state.g_min, ensemble.sweeps)
            return AdaptiveResult(ensemble, training, record)

        if training.has_input(theta):
            record.termination = "duplicate-point"
            log.error("iteration %d selected design point %s; stopping", k, theta)
            return AdaptiveResult(ensemble, training, record)
        try:
            new_outputs = model.evaluate(theta)
        except Exception as exc:
            record.termination = "forward-failure"
            log.error("forward model failed at %s: %s; returning partial record",
                      theta, exc)
            return AdaptiveResult(ensemble, training, record)
        training = training.augmented(theta, new_outputs)
        entry.accepted = True
        entry.wall_time_s = time.perf_counter() - tic
        log.info("iteration %d: added %s, I=%.3e, g_min=%.4f, %d sweeps",
                 k, theta, improvement, state.g_min, ensemble.sweeps)

    record.termination = "budget"
    ensemble = sample_hyperposterior(
        training, cfg.hyper_prior, cfg.n_walkers, cfg.n_steps,
        seed=_iteration_seed(cfg.seed, cfg.n_max + 1),
        init_positions=ensemble.hyperparams,
    )
    return AdaptiveResult(ensemble, training, record)
