"""Posterior sampling with either likelihood, HPD interval summaries, and the
grid distance between two posteriors on a low-dimensional box."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .designs import DesignBox
from .likelihood import logsumexp
from .mcmc import LogProb, run_chain

POOL_FACTOR = 20  # walkers start at the best of POOL_FACTOR * n_walkers uniform draws
GRID_POINTS = 10_201  # posterior-distance grid: 101^2 cells in 2-D, 10,201 in 1-D


@dataclass
class PosteriorSampleSet:
    """Samples from a box-supported posterior plus their provenance."""

    samples: np.ndarray      # (n, p)
    source: str              # "true-model" | "surrogate" | free-form
    metadata: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def sample_posterior(
    loglik: LogProb,
    prior: DesignBox,
    n_samples: int,
    seed: int,
    n_walkers: int,
    source: str,
) -> PosteriorSampleSet:
    """Ensemble-MCMC samples from p(theta) proportional to exp(loglik) in the box.

    Runs 2k sweeps of n_walkers walkers where k = ceil(n_samples / n_walkers),
    discards the first half as burn-in, and flattens the remainder. `loglik`
    follows the row-batched convention of :mod:`gpinv.mcmc`.

    Walkers start at the best of a uniform candidate pool of
    POOL_FACTOR * n_walkers points, scored once, so sharply concentrated
    targets do not leave walkers stranded behind likelihood barriers.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    kept_steps = -(-n_samples // n_walkers)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9001]))
    chain, acceptance, _ = run_chain(
        loglik, prior, n_walkers, 2 * kept_steps, seed=seed,
        keep_every_step=True, init_positions=prior.sample(rng, POOL_FACTOR * n_walkers),
    )
    samples = chain[kept_steps:].reshape(-1, prior.dim)[:n_samples]
    return PosteriorSampleSet(
        samples=samples,
        source=source,
        metadata={
            "seed": seed,
            "n_walkers": n_walkers,
            "burn_in_steps": kept_steps,
            "kept_steps": kept_steps,
            "acceptance_rate": acceptance,
            "init": f"best-of-pool({POOL_FACTOR * n_walkers})",
        },
    )


@dataclass(frozen=True)
class HpdSummary:
    """Per-dimension shortest credible intervals at a common level."""

    alpha: float
    lower: np.ndarray   # (p,)
    upper: np.ndarray   # (p,)

    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self.lower, self.upper))

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.all((points >= self.lower) & (points <= self.upper), axis=1)


def shortest_interval(values: np.ndarray, level: float) -> tuple[float, float]:
    """Shortest window over sorted values containing ceil(level * n) of them."""
    values = np.sort(np.asarray(values, dtype=float))
    n = values.shape[0]
    m = int(np.ceil(level * n))
    m = min(max(m, 2), n)
    widths = values[m - 1:] - values[: n - m + 1]
    start = int(np.argmin(widths))
    return float(values[start]), float(values[start + m - 1])


def hpd_region(samples: PosteriorSampleSet | np.ndarray, alpha: float = 0.05) -> HpdSummary:
    """Per-dimension shortest (1 - alpha) intervals, reported as a box.

    Marginal construction: each dimension is summarized independently, which
    matches how rectangular credible regions are usually reported. The box
    itself covers slightly less than 1 - alpha of the joint mass when the
    dimensions are nearly independent.
    """
    values = samples.samples if isinstance(samples, PosteriorSampleSet) else np.asarray(samples)
    if values.ndim < 2:
        values = values.reshape(-1, 1)
    if values.shape[0] < 100:
        raise ValueError(f"need at least 100 samples, got {values.shape[0]}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not np.all(np.isfinite(values)):
        raise ValueError("samples must all be finite")
    bounds = np.array([shortest_interval(values[:, j], 1.0 - alpha) for j in range(values.shape[1])])
    return HpdSummary(alpha=alpha, lower=bounds[:, 0], upper=bounds[:, 1])


def grid_points(box: DesignBox) -> np.ndarray:
    """Cell centres of round(GRID_POINTS ** (1/p)) equal cells per side of the box,
    (cells, p), the first coordinate varying slowest."""
    per_side = round(GRID_POINTS ** (1.0 / box.dim))
    centres = (np.arange(per_side) + 0.5) / per_side
    axes = np.meshgrid(*[centres] * box.dim, indexing="ij")
    return box.from_unit(np.column_stack([axis.ravel() for axis in axes]))


def grid_hellinger(log_p: np.ndarray, log_q: np.ndarray) -> float:
    """Hellinger distance between two densities given by their unnormalized log
    values on one grid: sqrt(1 - sum_i sqrt(p_i q_i)) with p and q normalized
    to sum 1 over the grid, so 0 for equal densities and 1 for disjoint ones.

    Under the uniform prior of a box the posterior density is exp(loglik), so
    the log-likelihoods at `grid_points(box)` can be passed as they are.
    """
    log_p = np.asarray(log_p, dtype=float) - logsumexp(log_p)
    log_q = np.asarray(log_q, dtype=float) - logsumexp(log_q)
    overlap = float(np.exp(0.5 * (log_p + log_q)).sum())
    return float(np.sqrt(max(0.0, 1.0 - overlap)))
