"""Space-filling input designs: Latin hypercube and Sobol sequences."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .errors import CapabilityError

SOBOL_MAX_DIM = 21


@dataclass(frozen=True)
class DesignBox:
    """Axis-aligned box: the search region of a design, and the uniform prior of a sampler."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.atleast_1d(np.asarray(self.lower, dtype=float)))
        object.__setattr__(self, "upper", np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if self.lower.shape != self.upper.shape:
            raise ValueError("bound vectors must have equal length")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower bounds must be strictly below upper bounds")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.all((points >= self.lower) & (points <= self.upper), axis=1)

    def from_unit(self, unit_points: np.ndarray) -> np.ndarray:
        """Map points in [0,1]^p into the box."""
        return self.lower + (self.upper - self.lower) * np.atleast_2d(unit_points)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n points drawn uniformly from the box."""
        return self.from_unit(rng.random((n, self.dim)))

    def clip(self, points: np.ndarray) -> np.ndarray:
        return np.clip(points, self.lower, self.upper)


def latin_hypercube(n: int, box: DesignBox, seed: int = 0) -> np.ndarray:
    """n points with one point per axis-parallel stratum in every dimension.

    Each margin is divided into n equal strata; a random permutation assigns
    one point to each stratum and the point lands uniformly inside it.
    """
    if n < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    unit = np.empty((n, box.dim))
    for j in range(box.dim):
        strata = rng.permutation(n)
        unit[:, j] = (strata + rng.random(n)) / n
    return box.from_unit(unit)


def sobol(n: int, box: DesignBox, skip: int = 0) -> np.ndarray:
    """First n points of the (unscrambled) Sobol sequence after `skip`, scaled
    into the box. Deterministic and platform-independent; the skip=0 point is
    the box's lower corner."""
    if box.dim > SOBOL_MAX_DIM:
        raise CapabilityError(f"Sobol direction numbers configured up to d={SOBOL_MAX_DIM}")
    if n < 1:
        raise ValueError("need at least one point")
    with warnings.catch_warnings():
        # scipy warns about balance when n is not a power of two; irrelevant
        # for multistart seeding.
        warnings.simplefilter("ignore", UserWarning)
        engine = qmc.Sobol(d=box.dim, scramble=False)
        if skip:
            engine.fast_forward(skip)
        unit = engine.random(n)
    return box.from_unit(unit)
