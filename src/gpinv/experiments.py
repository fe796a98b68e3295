"""Benchmark experiment definitions and config-file loading.

Each experiment bundles a forward model, the parameter search box, the
hyperparameter prior, and the sampling/optimization protocol. The built-in
definitions can be overridden field by field from an INI-style config file
(section.key = value), and the checked-in files under configs/ spell out the
same values explicitly.
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
    GridSolverConfig,
    HeatSource2D,
    Rational1D,
    generate_measurements,
)
from .gp import GpEnsemble
from .likelihood import (
    MeasurementModel,
    d_restricted_loglik_batch,
    loglik_of_outputs,
)


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully specified inverse problem plus solution protocol."""

    name: str
    model_kind: str                 # rational1d | heat | darcy
    bounds_lower: tuple
    bounds_upper: tuple
    hyper_upper: tuple              # upper bounds for (sigma_c, l_1..l_p)
    hyper_lower: tuple
    theta_true: tuple
    noise_sigma: float
    meas_seed: int = 101
    n_initial: int = 4
    n_max: int = 11
    eps_thresh: float = 0.01
    eta: float = 1e-4
    n_walkers: int = 200
    n_steps: int = 400
    starts: str = "sobol"
    n_starts: int = 50
    extra_starts: int = 100
    posterior_samples: int = 20_000
    posterior_walkers: int = 100
    solver_nx: int = 32
    solver_ny: int = 32
    solver_dt: float = 0.01
    fine_nx: int = 128
    fine_ny: int = 128
    fine_dt: float = 0.0025
    sensor_convention: str = "interior"

    @property
    def bounds(self) -> DesignBox:
        return DesignBox(np.array(self.bounds_lower), np.array(self.bounds_upper))

    @property
    def hyper_prior(self) -> DesignBox:
        return DesignBox(np.array(self.hyper_lower), np.array(self.hyper_upper))

    def build_model(self) -> ForwardModel:
        if self.model_kind == "rational1d":
            return Rational1D()
        if self.model_kind == "heat":
            return HeatSource2D(
                cfg=GridSolverConfig(self.solver_nx, self.solver_ny, self.solver_dt),
                fine_cfg=GridSolverConfig(self.fine_nx, self.fine_ny, self.fine_dt),
                sensor_convention=self.sensor_convention,
            )
        if self.model_kind == "darcy":
            return DarcyPermeability2D(
                cfg=GridSolverConfig(self.solver_nx, self.solver_ny),
                fine_cfg=GridSolverConfig(self.fine_nx, self.fine_ny),
                sensor_convention=self.sensor_convention,
            )
        raise ValueError(f"unknown model kind {self.model_kind!r}")

    def measurement(self, model: ForwardModel) -> MeasurementModel:
        noise = np.full(model.output_dim, self.noise_sigma**2)
        return generate_measurements(model, np.array(self.theta_true), noise, seed=self.meas_seed)

    def adaptive_config(self, seed: int, initial_design: np.ndarray | None = None) -> AdaptiveConfig:
        if initial_design is None:
            if self.model_kind == "rational1d":
                initial_design = np.array([[-4.0], [0.0], [4.0]])
            else:
                initial_design = latin_hypercube(self.n_initial, self.bounds, seed=seed)
        return AdaptiveConfig(
            bounds=self.bounds,
            hyper_prior=self.hyper_prior,
            initial_design=initial_design,
            n_max=self.n_max,
            eps_thresh=self.eps_thresh,
            eta=self.eta,
            n_walkers=self.n_walkers,
            n_steps=self.n_steps,
            starts=self.starts,
            n_starts=self.n_starts,
            extra_starts=self.extra_starts,
            seed=seed,
        )


ONE_D = ExperimentSpec(
    name="one_d",
    model_kind="rational1d",
    bounds_lower=(-6.0,), bounds_upper=(6.0,),
    hyper_lower=(1e-8, 1e-8), hyper_upper=(12.0, 5.0),
    theta_true=(2.41,),
    noise_sigma=0.01,
    n_initial=3,
    n_max=15,
    n_walkers=100,
    starts="grid",
    n_starts=25,
    extra_starts=0,
)

HEAT = ExperimentSpec(
    name="heat",
    model_kind="heat",
    bounds_lower=(0.0, 0.0), bounds_upper=(1.0, 1.0),
    hyper_lower=(1e-8, 1e-8, 1e-8), hyper_upper=(2.0, 1.0, 1.0),
    theta_true=(0.25, 0.75),
    noise_sigma=0.1,
    meas_seed=5,
    n_initial=4,
    sensor_convention="corners",
    n_max=11,
    n_starts=50,
    extra_starts=100,
)

PERMEABILITY = ExperimentSpec(
    name="permeability",
    model_kind="darcy",
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
    sensor_convention="corners",
)

EXPERIMENTS = {spec.name: spec for spec in (ONE_D, HEAT, PERMEABILITY)}

_FIELD_SECTIONS = {
    "experiment": ("name", "model_kind", "meas_seed"),
    "measurement": ("noise_sigma", "meas_seed"),
    "adaptive": ("n_initial", "n_max", "eps_thresh", "eta"),
    "mcmc": ("n_walkers", "n_steps"),
    "acquisition": ("starts", "n_starts", "extra_starts", "eta"),
    "posterior": ("posterior_samples", "posterior_walkers"),
    "solver": ("solver_nx", "solver_ny", "solver_dt", "fine_nx", "fine_ny", "fine_dt",
               "sensor_convention"),
}

_TUPLE_FIELDS = {
    "bounds_lower": ("bounds", "lower"),
    "bounds_upper": ("bounds", "upper"),
    "hyper_lower": ("hyper_prior", "lower"),
    "hyper_upper": ("hyper_prior", "upper"),
    "theta_true": ("measurement", "theta_true"),
}


def load_experiment(path: str | Path) -> ExperimentSpec:
    """Build an experiment from an INI config, starting from the named base.

    The [experiment] section must carry name = one_d | heat | permeability;
    every other key overrides the corresponding built-in value.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(str(path))
    if not read:
        raise FileNotFoundError(f"config file {path} not found or unreadable")
    if not parser.has_option("experiment", "name"):
        raise ValueError("config must set experiment.name")
    name = parser.get("experiment", "name")
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    spec = EXPERIMENTS[name]

    overrides: dict = {}
    for section, keys in _FIELD_SECTIONS.items():
        if not parser.has_section(section):
            continue
        for key in keys:
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                current = getattr(spec, key)
                overrides[key] = _coerce(raw, current)
    for field_name, (section, key) in _TUPLE_FIELDS.items():
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            overrides[field_name] = tuple(float(v) for v in raw.replace(",", " ").split())
    return replace(spec, **overrides)


def _coerce(raw: str, current):
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw.strip()


def true_loglik_rows(model: ForwardModel, meas: MeasurementModel):
    """Row-batched true log-likelihood for the samplers (one forward solve per row)."""

    def loglik(thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(thetas)
        return np.array([loglik_of_outputs(model.evaluate(row), meas) for row in thetas])

    return loglik


def surrogate_loglik_rows(ens: GpEnsemble, meas: MeasurementModel):
    """Row-batched surrogate log-likelihood; never touches the forward model."""

    def loglik(thetas: np.ndarray) -> np.ndarray:
        return d_restricted_loglik_batch(thetas, ens, meas)

    return loglik
