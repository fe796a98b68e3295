"""Affine-invariant ensemble sampler built on the stretch move.

The walker population is split into two halves; each half is updated in turn
against the frozen complementary half. All random draws for a half-update are
taken from the ensemble generator before any density evaluation, so the
accept/reject decisions depend on the positions only through the density
values. That is what makes runs reproducible bit for bit and lets density
evaluations run in parallel without perturbing the stream.

Log-probability callables are vectorized: they receive an (m, d) array of row
points and return an (m,) array. `run_chain` yields the walkers after every
sweep and never stops; each caller owns its stopping rule, a fixed length in
both `sample_hyperposterior`'s cold chain and `gpinv.posterior.sample_posterior`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterator

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

# Resample-move transition of sample_hyperposterior: each stage keeps an
# incremental-weight ESS of SMC_ESS_FRACTION of the rows and takes SMC_SWEEPS
# stretch sweeps. On heat seed 0 (200 walkers) a run made 1,207 LML calls
# instead of the 3,008 of warm chains stopped by a quantile settle rule; at
# 5-6 design points its rows lie further from long chains (see CHANGES.md).
SMC_SWEEPS = 10
SMC_ESS_FRACTION = 0.5


# Uniform priors are boxes; perfbench/workloads.py imports this alias, so it stays.
BoxPrior = DesignBox


@dataclass
class WalkerEnsemble:
    """Current walker positions with cached log-probabilities and RNG state."""

    positions: np.ndarray   # (n_walkers, d)
    log_probs: np.ndarray   # (n_walkers,)
    rng: np.random.Generator


def stretch_step(ens: WalkerEnsemble, log_prob: LogProb, box: DesignBox) -> int:
    """One full stretch-move sweep (both halves); returns the accepted count.

    For walker x_k in the active half, a partner x_j is drawn from the frozen
    half, z is drawn with density proportional to 1/sqrt(z) on [1/a, a]
    (a = STRETCH_A), and the proposal y = x_j + z (x_k - x_j) is accepted with
    probability min(1, z^(d-1) exp(logp(y) - logp(x_k))). `log_prob` is called
    on the proposals inside `box` only (the uniform prior); the others have
    probability zero. Per half, the partner indices, then the z draws, then
    the acceptance uniforms come from ens.rng.
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
        new_lp = np.full(m, -np.inf)
        inside = box.contains(proposals)
        if np.any(inside):
            new_lp[inside] = log_prob(proposals[inside])
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
    uniform in the box, so every row is scored, once; from more rows than
    walkers the n_walkers most probable are kept, best first, ties to the
    earlier row."""
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
    seed: int,
    init_positions: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, float]]:
    """Endless generator of sweeps from a uniform start in the box (or from
    `init_positions`): after each sweep it yields the walker positions
    (n_walkers, d), the live array the next sweep updates in place, and the
    acceptance rate so far. The caller decides when to stop and copies what
    it keeps."""
    rng = np.random.default_rng(seed)
    ens = _init_ensemble(log_prob, prior, n_walkers, rng, init_positions)
    accepted = proposed = 0
    while True:
        accepted += stretch_step(ens, log_prob, prior)
        proposed += n_walkers
        yield ens.positions, accepted / proposed


def sample_hyperposterior(
    training: TrainingSet,
    prior: DesignBox,
    n_walkers: int,
    n_steps: int,
    seed: int,
    previous: GpEnsemble | None = None,
) -> GpEnsemble:
    """Draw hyperparameter samples from their posterior and fit the ensemble.

    The target is the product of the per-output marginal likelihoods times the
    box indicator. With no `previous` ensemble, n_steps sweeps from a uniform
    start in the box; otherwise `_transition` carries `previous`'s n_walkers
    rows to this design, and n_steps is unused. The final rows are
    factorized as one stack; a row that no jitter level factorizes is
    replaced by duplicating a uniformly chosen factorized row, so the
    ensemble size stays fixed. The ensemble records the stretch `sweeps`, the
    transition's `stages` (0 for a chain) and its one-step `reweight_ess` /
    n_walkers (nan for a chain).
    """
    if prior.dim != training.input_dim + 1:
        raise ValueError(
            f"hyperparameter prior dimension {prior.dim} != p+1 = {training.input_dim + 1}"
        )
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")

    if previous is None:
        chain = run_chain(lambda psis: _lml_batch(training, psis), prior, n_walkers, seed)
        for sweeps in range(1, n_steps + 1):
            positions, _ = next(chain)
        psis, stages, reweight_ess = positions.copy(), 0, float("nan")
    else:
        if previous.hyperparams.shape != (n_walkers, prior.dim):
            raise ValueError(f"previous ensemble must have {n_walkers} rows of {prior.dim}, "
                             f"got {previous.hyperparams.shape}")
        psis, stages, reweight_ess = _transition(previous, training, prior, seed)
        sweeps = stages * SMC_SWEEPS
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
    ensemble.sweeps, ensemble.stages, ensemble.reweight_ess = sweeps, stages, reweight_ess
    return ensemble


def _transition(
    previous: GpEnsemble, training: TrainingSet, prior: DesignBox, seed: int
) -> tuple[np.ndarray, int, float]:
    """Resample-move SMC (Chopin 2002; Del Moral, Doucet & Jasra 2006) of
    `previous`'s rows from its design to `training`. With l0 and l1 the LMLs
    on the two designs, each stage raises beta from 0 by `_next_beta`,
    resamples systematically by exp((beta' - beta)(l1 - l0)), drawing the
    uniform before any density call, and takes SMC_SWEEPS stretch sweeps at
    (1 - beta) l0 + beta l1 (l1 alone at beta = 1, the last stage). Rows of
    zero probability get zero weight. Returns the rows, the stages and the
    one-step reweighting ESS / J.
    """
    rng = np.random.default_rng(seed)
    old = previous.training
    beta = 0.0

    def score(psis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        l0, l1 = _lml_batch(old, psis), _lml_batch(training, psis)
        return l0, l1, np.where((l0 > -np.inf) & (l1 > -np.inf), l1 - l0, -np.inf)

    def target(p: np.ndarray) -> np.ndarray:  # at the current stage's beta
        if beta == 1.0:
            return _lml_batch(training, p)
        return (1.0 - beta) * _lml_batch(old, p) + beta * _lml_batch(training, p)

    psis = previous.hyperparams
    n = len(psis)
    l0, l1, diff = score(psis)
    if not np.any(diff > -np.inf):
        raise InitializationError("every previous hyperparameter row has zero probability "
                                  "on the new design")
    reweight_ess = _ess(diff) / n
    stages = 0
    while beta < 1.0:
        new_beta = _next_beta(beta, diff)
        cdf = np.cumsum(np.exp((new_beta - beta) * (diff - diff.max())))
        # Points (i + 1 - u) / n lie in (0, 1], so searching from the left
        # never picks a zero-weight row and never runs past the last.
        pick = np.searchsorted(cdf / cdf[-1], (np.arange(n) + 1.0 - rng.random()) / n)
        beta = new_beta
        log_probs = l1[pick] if beta == 1.0 else (1.0 - beta) * l0[pick] + beta * l1[pick]
        ens = WalkerEnsemble(psis[pick], log_probs, rng)
        for _ in range(SMC_SWEEPS):
            stretch_step(ens, target, prior)
        psis, stages = ens.positions, stages + 1
        if beta < 1.0:
            l0, l1, diff = score(psis)
    return psis, stages, reweight_ess


def _ess(log_weights: np.ndarray) -> float:
    """Effective sample size (sum w)^2 / sum w^2 of the weights exp(log_weights)."""
    w = np.exp(log_weights - log_weights.max())
    return float(w.sum() ** 2 / (w @ w))


def _next_beta(beta: float, diff: np.ndarray) -> float:
    """beta' in (beta, 1] whose weights exp((beta' - beta) diff) keep an ESS
    of SMC_ESS_FRACTION of the rows of nonzero weight: 1 when the full step
    keeps it, else the bisection's last point that keeps it (50 halvings)."""
    target = SMC_ESS_FRACTION * np.count_nonzero(diff > -np.inf)
    if _ess((1.0 - beta) * diff) >= target:
        return 1.0
    lo, hi = 0.0, 1.0 - beta
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _ess(mid * diff) >= target else (lo, mid)
    return beta + lo
