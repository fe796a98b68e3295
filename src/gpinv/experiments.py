"""Benchmark experiment definitions and config-file loading.

Each experiment bundles a forward model, the parameter search box, the
hyperparameter prior, and the sampling/optimization protocol. The built-in
definitions can be overridden field by field from an INI-style config file
(section.key = value; each field has exactly one key, and any other key is an
error). A field exists only where the experiments differ (or the benchmark's
toy runs override it); the solver grids are the forward models' constructor
defaults, and the stopping fraction and EI smoothing are constants of the
adaptive loop.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .adaptive import AdaptiveConfig
from .designs import DesignBox, latin_hypercube
from .forward_models import (
    PERMEABILITY_BOUNDS,
    PERMEABILITY_THETA_TRUE,
    DarcyPermeability2D,
    ForwardModel,
    HeatSource2D,
    Rational1D,
    generate_measurements,
)
from .gp import GpEnsemble
from .likelihood import MeasurementModel, d_restricted_loglik_batch, misfit_of_outputs
from .mcmc import check_walkers


# experiment name -> forward model, built with its constructor's solver grids
_MODELS = {"one_d": Rational1D, "heat": HeatSource2D, "permeability": DarcyPermeability2D}


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully specified inverse problem plus solution protocol.

    Construction checks every value, so a spec that exists can run.
    """

    name: str                       # one_d | heat | permeability; picks the forward model
    bounds_lower: tuple
    bounds_upper: tuple
    hyper_upper: tuple              # upper bounds for (sigma_c, l_1..l_p)
    hyper_lower: tuple
    theta_true: tuple
    noise_sigma: float
    meas_seed: int = 101
    n_initial: int = 4
    n_max: int = 11
    n_walkers: int = 200
    n_steps: int = 400              # one value in every experiment; the benchmark's toy runs set it
    n_starts: int = 50
    extra_starts: int = 100
    posterior_walkers: int = 100    # one value in every experiment; the benchmark's toy runs set it

    def __post_init__(self):
        if self.name not in _MODELS:
            raise ValueError(f"unknown experiment {self.name!r}; choose from {sorted(_MODELS)}")
        p = len(self.bounds_lower)
        if p != _MODELS[self.name].input_dim:
            raise ValueError(f"bounds.lower has {p} values, need "
                             f"{_MODELS[self.name].input_dim} for {self.name}")
        if not self.noise_sigma > 0.0:
            raise ValueError(f"noise_sigma must be positive, got {self.noise_sigma}")
        if not np.isfinite(self.noise_sigma):
            raise ValueError(f"noise_sigma must be finite, got {self.noise_sigma}")
        if self.meas_seed < 0:
            raise ValueError(f"meas_seed must be at least 0, got {self.meas_seed}")
        if self.n_initial < 1:
            raise ValueError(f"n_initial must be at least 1, got {self.n_initial}")
        if len(self.theta_true) != p:
            raise ValueError(f"theta_true {self.theta_true} has {len(self.theta_true)} values "
                             f"for {p} parameters")
        if not np.all(np.isfinite(self.theta_true)):
            raise ValueError(f"theta_true {self.theta_true} must be finite")
        if not self.bounds.contains(np.array(self.theta_true))[0]:
            raise ValueError(f"theta_true {self.theta_true} lies outside the [bounds] box")
        check_walkers("posterior_walkers", self.posterior_walkers, p)
        self.adaptive_config(seed=0)

    @property
    def bounds(self) -> DesignBox:
        return _box("bounds", self.bounds_lower, self.bounds_upper)

    @property
    def hyper_prior(self) -> DesignBox:
        return _box("hyper_prior", self.hyper_lower, self.hyper_upper)

    def build_model(self) -> ForwardModel:
        return _MODELS[self.name]()

    def measurement(self, model: ForwardModel) -> MeasurementModel:
        noise = np.full(model.output_dim, self.noise_sigma**2)
        return generate_measurements(model, np.array(self.theta_true), noise, seed=self.meas_seed)

    def adaptive_config(self, seed: int) -> AdaptiveConfig:
        """The run's protocol. The initial design holds the centres of
        n_initial equal cells in 1-D and a Latin hypercube otherwise."""
        bounds = self.bounds
        if bounds.dim == 1:
            centres = (np.arange(self.n_initial) + 0.5) / self.n_initial
            initial_design = bounds.from_unit(centres[:, None])
        else:
            initial_design = latin_hypercube(self.n_initial, bounds, seed=seed)
        return AdaptiveConfig(
            bounds=bounds,
            hyper_prior=self.hyper_prior,
            initial_design=initial_design,
            n_max=self.n_max,
            n_walkers=self.n_walkers,
            n_steps=self.n_steps,
            n_starts=self.n_starts,
            extra_starts=self.extra_starts,
            seed=seed,
        )


def _box(section: str, lower: tuple, upper: tuple) -> DesignBox:
    """The box of one config section; a bad box is reported under its section."""
    try:
        return DesignBox(np.array(lower), np.array(upper))
    except ValueError as exc:
        raise ValueError(f"[{section}] {exc}") from exc


ONE_D = ExperimentSpec(
    name="one_d",
    bounds_lower=(-6.0,), bounds_upper=(6.0,),
    hyper_lower=(1e-8, 1e-8), hyper_upper=(12.0, 5.0),
    theta_true=(2.41,),
    noise_sigma=0.01,
    n_initial=3,
    n_max=15,
    n_walkers=100,
    n_starts=25,
    extra_starts=0,
)

HEAT = ExperimentSpec(
    name="heat",
    bounds_lower=(0.0, 0.0), bounds_upper=(1.0, 1.0),
    hyper_lower=(1e-8, 1e-8, 1e-8), hyper_upper=(2.0, 1.0, 1.0),
    theta_true=(0.25, 0.75),
    noise_sigma=0.1,
    meas_seed=5,
    n_initial=4,
    n_max=11,
    n_starts=50,
    extra_starts=100,
)

PERMEABILITY = ExperimentSpec(
    name="permeability",
    bounds_lower=tuple(PERMEABILITY_BOUNDS[0]),
    bounds_upper=tuple(PERMEABILITY_BOUNDS[1]),
    hyper_lower=tuple([0.0] * 10),
    hyper_upper=tuple([4.0] * 10),
    theta_true=tuple(PERMEABILITY_THETA_TRUE),
    noise_sigma=0.01,
    n_initial=18,
    n_max=20,
    n_starts=500,
    extra_starts=0,
)

EXPERIMENTS = {spec.name: spec for spec in (ONE_D, HEAT, PERMEABILITY)}

# (section, key) -> ExperimentSpec field: the one config key of each settable field
CONFIG_KEYS = {
    ("experiment", "name"): "name",
    ("bounds", "lower"): "bounds_lower",
    ("bounds", "upper"): "bounds_upper",
    ("hyper_prior", "lower"): "hyper_lower",
    ("hyper_prior", "upper"): "hyper_upper",
    ("measurement", "theta_true"): "theta_true",
    ("measurement", "noise_sigma"): "noise_sigma",
    ("measurement", "meas_seed"): "meas_seed",
    ("adaptive", "n_initial"): "n_initial",
    ("adaptive", "n_max"): "n_max",
    ("mcmc", "n_walkers"): "n_walkers",
    ("mcmc", "n_steps"): "n_steps",
    ("acquisition", "n_starts"): "n_starts",
    ("acquisition", "extra_starts"): "extra_starts",
    ("posterior", "posterior_walkers"): "posterior_walkers",
}


def load_experiment(path: str | Path) -> ExperimentSpec:
    """Build an experiment from an INI config, starting from the named base.

    The [experiment] section must carry name = one_d | heat | permeability;
    every other key overrides one field. An unknown section or key, or a value
    that does not parse, raises ValueError naming it.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ValueError(str(exc)) from exc
    if not read:
        raise FileNotFoundError(f"config file {path} not found or unreadable")
    sections = {section for section, _ in CONFIG_KEYS}
    unknown = [f"{s}.{k}" for s in parser.sections() for k in parser.options(s)
               if (s, k) not in CONFIG_KEYS]
    unknown += [f"[{s}]" for s in parser.sections() if s not in sections]
    if unknown:
        raise ValueError(f"unknown config section or key: {', '.join(unknown)}")
    if not parser.has_option("experiment", "name"):
        raise ValueError("config must set experiment.name")
    name = parser.get("experiment", "name")
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    spec = EXPERIMENTS[name]

    overrides: dict = {}
    for (section, key), field_name in CONFIG_KEYS.items():
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                overrides[field_name] = _coerce(raw, getattr(spec, field_name))
            except ValueError as exc:
                raise ValueError(f"{section}.{key} = {raw!r}: {exc}") from exc
    return replace(spec, **overrides)


def _coerce(raw: str, current):
    if isinstance(current, tuple):
        return tuple(float(v) for v in raw.replace(",", " ").split())
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw.strip()


def true_loglik_rows(model: ForwardModel, meas: MeasurementModel):
    """Row-batched true Gaussian log-likelihood for the samplers (one forward
    solve per row): -(g + sum log(2 pi noise_vars)) / 2 with g the misfit."""
    log_norm = float(np.sum(np.log(2.0 * np.pi * meas.noise_vars)))

    def loglik(thetas: np.ndarray) -> np.ndarray:
        g = np.array([misfit_of_outputs(model.evaluate(row), meas) for row in np.atleast_2d(thetas)])
        return -0.5 * (g + log_norm)

    return loglik


def surrogate_loglik_rows(ens: GpEnsemble, meas: MeasurementModel):
    """Row-batched surrogate log-likelihood; never touches the forward model."""

    def loglik(thetas: np.ndarray) -> np.ndarray:
        return d_restricted_loglik_batch(thetas, ens, meas)

    return loglik
