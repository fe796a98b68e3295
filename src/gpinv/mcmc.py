"""Affine-invariant ensemble sampler built on the stretch move.

The walker population is split into two halves; each half is updated in turn
against the frozen complementary half. All random draws for a half-update are
taken from the ensemble generator before any density evaluation, so the
accept/reject decisions depend on the positions only through the density
values. That is what makes runs reproducible bit for bit and lets density
evaluations run in parallel without perturbing the stream.

Log-probability callables are vectorized: they receive an (m, d) array of row
points and return an (m,) array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .designs import DesignBox
from .errors import IllConditionedKernelError, InitializationError
# perfbench/tracing.py patches gpinv.mcmc.fit_single, so the name stays imported here.
from .gp import GpEnsemble, TrainingSet, _lml_batch, fit_single

log = logging.getLogger(__name__)

LogProb = Callable[[np.ndarray], np.ndarray]

# Stretch scale a of the proposal z ~ 1/sqrt(z) on [1/a, a], the value
# Goodman & Weare (2010) recommend.
STRETCH_A = 2.0

# Settle rule of the hyperposterior chain: every SETTLE_EVERY sweeps the
# 10/50/90 % walker quantiles of each coordinate are taken in prior-box
# widths; from SETTLE_MIN sweeps on, the chain ends once none has moved more
# than SETTLE_TOL since the previous check (n_steps stays the cap). On heat
# (200 walkers, 3-D), warm-started chains settled in 100 sweeps at n = 8
# (seed 0) and n = 12 (seed 6) and lay within 0.009 and 0.004 box widths of a
# 4,000-sweep reference in every quantile, against 0.019 and 0.003 for cold
# 400-sweep chains on the same designs; the sampling error of a 10 % quantile
# over 200 walkers is near 0.01. Heat seeds 0-9 ran 15.1k sweeps instead of
# 30.4k. In 10-D (permeability) the largest of the 30 quantile moves sits near
# SETTLE_TOL, so a chain can stop there by chance (ROADMAP item 2).
SETTLE_EVERY = 50
SETTLE_MIN = 100
SETTLE_TOL = 0.02
SETTLE_QUANTILES = (0.1, 0.5, 0.9)


# Uniform priors are boxes; perfbench/workloads.py imports this alias, so it stays.
BoxPrior = DesignBox


@dataclass
class WalkerEnsemble:
    """Current walker positions with cached log-probabilities and RNG state."""

    positions: np.ndarray   # (n_walkers, d)
    log_probs: np.ndarray   # (n_walkers,)
    rng: np.random.Generator


def stretch_step(ens: WalkerEnsemble, log_prob: LogProb) -> int:
    """One full stretch-move sweep (both halves); returns the accepted count.

    For walker x_k in the active half, a partner x_j is drawn from the frozen
    half, z is drawn with density proportional to 1/sqrt(z) on [1/a, a]
    (a = STRETCH_A), and the proposal y = x_j + z (x_k - x_j) is accepted with
    probability min(1, z^(d-1) exp(logp(y) - logp(x_k))). Per half, the
    partner indices, then the z draws, then the acceptance uniforms come from
    ens.rng.
    """
    n, d = ens.positions.shape
    if n % 2:
        raise ValueError("number of walkers must be even")
    half = n // 2
    accepted = 0
    for active, frozen in (
        (np.arange(0, half), np.arange(half, n)),
        (np.arange(half, n), np.arange(0, half)),
    ):
        m = active.size
        partners = frozen[ens.rng.integers(0, frozen.size, size=m)]
        z = ((STRETCH_A - 1.0) * ens.rng.random(m) + 1.0) ** 2 / STRETCH_A
        accept_u = ens.rng.random(m)
        anchor = ens.positions[partners]
        proposals = anchor + z[:, None] * (ens.positions[active] - anchor)
        new_lp = np.asarray(log_prob(proposals), dtype=float)
        bad = np.isnan(new_lp)
        if np.any(bad):
            log.warning("log-probability returned NaN for %d proposals; treating as -inf", bad.sum())
            new_lp = np.where(bad, -np.inf, new_lp)
        with np.errstate(invalid="ignore", divide="ignore"):
            log_ratio = (d - 1) * np.log(z) + new_lp - ens.log_probs[active]
            take = np.log(accept_u) < log_ratio
        take &= new_lp > -np.inf  # zero-probability proposals are never taken
        idx = active[take]
        ens.positions[idx] = proposals[take]
        ens.log_probs[idx] = new_lp[take]
        accepted += int(take.sum())
    return accepted


def _restrict_to_box(log_prob: LogProb, prior: DesignBox) -> LogProb:
    """Short-circuit rows outside the box to -inf without evaluating them."""

    def restricted(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        out = np.full(points.shape[0], -np.inf)
        inside = prior.contains(points)
        if np.any(inside):
            out[inside] = np.asarray(log_prob(points[inside]), dtype=float)
        return out

    return restricted


def check_walkers(name: str, n_walkers: int, dim: int) -> None:
    """The stretch move needs an even ensemble of at least twice the dimension."""
    if n_walkers % 2 or n_walkers < 2 * dim:
        raise ValueError(f"{name} must be even and at least {2 * dim}, got {n_walkers}")


def _init_ensemble(
    log_prob: LogProb,
    prior: DesignBox,
    n_walkers: int,
    rng: np.random.Generator,
    init_positions: np.ndarray | None = None,
) -> WalkerEnsemble:
    """Walkers at `init_positions` (at least n_walkers rows in the box) or
    uniform in the box. The rows are scored once; from more rows than walkers
    the n_walkers most probable are kept, best first, ties to the earlier row."""
    check_walkers("n_walkers", n_walkers, prior.dim)
    if init_positions is not None:
        positions = np.array(init_positions, dtype=float)
        if positions.shape[1:] != (prior.dim,) or len(positions) < n_walkers:
            raise ValueError(f"init_positions must have at least {n_walkers} rows of {prior.dim}")
        if not np.all(prior.contains(positions)):
            raise ValueError("init_positions must lie inside the prior box")
    else:
        positions = prior.sample(rng, n_walkers)
    log_probs = np.asarray(log_prob(positions), dtype=float)
    log_probs = np.where(np.isnan(log_probs), -np.inf, log_probs)
    if positions.shape[0] > n_walkers:
        best = np.argsort(-log_probs, kind="stable")[:n_walkers]
        positions, log_probs = positions[best], log_probs[best]
    if not np.any(log_probs > -np.inf):
        raise InitializationError("every initial walker has zero probability")
    # Walkers stuck at -inf would poison acceptance ratios; restart them on
    # the finite walkers in turn, best first, so every cached log_prob is
    # finite and no single position collects them all (a stretch move between
    # two walkers at one point cannot leave it).
    stuck = np.flatnonzero(log_probs == -np.inf)
    if stuck.size:
        finite = np.flatnonzero(log_probs > -np.inf)
        donors = finite[np.argsort(-log_probs[finite], kind="stable")]
        donors = donors[np.arange(stuck.size) % donors.size]
        positions[stuck] = positions[donors]
        log_probs[stuck] = log_probs[donors]
        log.warning("re-seeded %d walkers that started at zero probability", stuck.size)
    return WalkerEnsemble(positions, log_probs, rng)


def run_chain(
    log_prob: LogProb,
    prior: DesignBox,
    n_walkers: int,
    n_steps: int,
    seed: int,
    keep_every_step: bool = False,
    init_positions: np.ndarray | None = None,
    settle: bool = False,
) -> tuple[np.ndarray, float, int]:
    """Drive the sampler for up to n_steps sweeps from a uniform start in the box.

    Returns (samples, acceptance_rate, sweeps). With keep_every_step the
    samples have shape (sweeps, n_walkers, d) — the position after every
    sweep — otherwise just the final (n_walkers, d) states. `init_positions`
    overrides the uniform-in-box walker initialization. Without `settle` the
    chain runs exactly n_steps sweeps; with it, the chain also ends at the
    first check that finds the walkers settled (see SETTLE_EVERY). The check
    reads positions only, so a settled chain equals the fixed-length chain of
    the same seed cut at the same sweep.
    """
    rng = np.random.default_rng(seed)
    target = _restrict_to_box(log_prob, prior)
    ens = _init_ensemble(target, prior, n_walkers, rng, init_positions)
    history = np.empty((n_steps, n_walkers, prior.dim)) if keep_every_step else None
    width = prior.upper - prior.lower
    accepted = sweeps = 0
    last = None
    while sweeps < n_steps:
        accepted += stretch_step(ens, target)
        if keep_every_step:
            history[sweeps] = ens.positions
        sweeps += 1
        if settle and sweeps % SETTLE_EVERY == 0:
            quantiles = np.quantile(ens.positions, SETTLE_QUANTILES, axis=0) / width
            if sweeps >= SETTLE_MIN and np.max(np.abs(quantiles - last)) <= SETTLE_TOL:
                break
            last = quantiles
    rate = accepted / max(1, sweeps * n_walkers)
    log.debug("sampler finished: %d walkers, %d sweeps, acceptance %.3f", n_walkers, sweeps, rate)
    if keep_every_step:
        return history[:sweeps], rate, sweeps
    return ens.positions.copy(), rate, sweeps


def sample_hyperposterior(
    training: TrainingSet,
    prior: DesignBox,
    n_walkers: int,
    n_steps: int,
    seed: int,
    init_positions: np.ndarray | None = None,
) -> GpEnsemble:
    """Draw hyperparameter samples from their posterior and fit the ensemble.

    The target is the product of the per-output marginal likelihoods times the
    box indicator. The walkers start at `init_positions` (n_walkers rows in
    the box, duplicates allowed; rows of zero probability are re-seeded as
    `_init_ensemble` does) or uniformly in the box, and the chain runs until
    it settles, at most n_steps sweeps. The final walkers are factorized as
    one stack; a row that no jitter level factorizes is replaced by
    duplicating a uniformly chosen factorized row, so the ensemble size stays
    fixed. The ensemble's `sweeps` is the number of sweeps the chain ran.
    """
    if prior.dim != training.input_dim + 1:
        raise ValueError(
            f"hyperparameter prior dimension {prior.dim} != p+1 = {training.input_dim + 1}"
        )

    def target(psis: np.ndarray) -> np.ndarray:
        return _lml_batch(training, psis)

    psis, _, sweeps = run_chain(target, prior, n_walkers, n_steps, seed,
                                init_positions=init_positions, settle=True)
    try:
        ensemble = GpEnsemble(training, psis)
    except IllConditionedKernelError as err:
        rows = list(psis[~err.failed])
        if not rows:
            raise InitializationError("no hyperparameter sample produced a usable fit") from err
        rng = np.random.default_rng(np.random.SeedSequence([seed, len(rows)]))
        log.warning("replacing %d failed hyperparameter fits by duplication", err.failed.sum())
        for _ in range(err.failed.sum()):
            rows.append(rows[int(rng.integers(0, len(rows)))])
        ensemble = GpEnsemble(training, np.array(rows))
    ensemble.sweeps = sweeps
    return ensemble
