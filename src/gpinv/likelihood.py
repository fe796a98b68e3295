"""Misfit functions and measurement likelihoods.

The true misfit weighs squared residuals by the noise variances alone; the
surrogate misfit inflates each denominator with the predictive variance of
the emulator, so untested regions are judged more leniently. The surrogate
log-likelihood marginalizes over the hyperparameter ensemble, producing a
Gaussian-mixture likelihood evaluated through a log-sum-exp so that huge
misfits stay finite.

Each member's log-normalizer needs sum_q log(a_q + V) per row, which the
misfit kernel takes as one log per group of outputs (see `_log_groups`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import GpEnsemble, TrainingSet

# Rows per predict call in d_restricted_loglik_batch: a block holds the
# predictive means (members x outputs x rows) and the cross-covariances
# (members x design points x rows), which L^-1 c overwrites in place; the
# misfit kernel itself adds only (members, rows) buffers. 50 rows is the
# half-ensemble that each half-sweep of `sample_posterior` passes, so only its
# start-up pool of thousands of rows is split; at 100 rows that pool alone
# doubled the call's tracemalloc peak (5.4 against 2.75 MiB at J = 200, n = 12,
# q = 18).
DENSITY_BLOCK = 50

# exp(+-600) leaves headroom below the normal doubles' exp(+-708).
LOG_GROUP_BOUND = 600.0


@dataclass(frozen=True)
class MeasurementModel:
    """Observed data vector and the (diagonal) noise variances."""

    z: np.ndarray           # (q,)
    noise_vars: np.ndarray  # (q,)

    def __post_init__(self):
        object.__setattr__(self, "z", np.atleast_1d(np.asarray(self.z, dtype=float)))
        object.__setattr__(self, "noise_vars", np.atleast_1d(np.asarray(self.noise_vars, dtype=float)))
        if self.z.shape != self.noise_vars.shape:
            raise ValueError("data and noise-variance vectors must have equal length")
        if not np.all(self.noise_vars > 0.0):
            raise ValueError("noise variances must be positive")

    @property
    def n_outputs(self) -> int:
        return self.z.shape[0]


def misfit_of_outputs(outputs: np.ndarray, meas: MeasurementModel) -> float:
    """Noise-weighted squared error of an already-computed output vector."""
    outputs = np.asarray(outputs, dtype=float).reshape(-1)
    if outputs.shape != meas.z.shape:
        raise ValueError(f"output length {outputs.shape[0]} != data length {meas.z.shape[0]}")
    return float(np.sum((meas.z - outputs) ** 2 / meas.noise_vars))


def _misfit_batch(thetas: np.ndarray, ens: GpEnsemble, meas: MeasurementModel) -> np.ndarray:
    """(n_psi, B) surrogate misfits at each row of thetas."""
    return member_misfits(*ens.predict_batch(thetas), ens.training, meas)[0]


def member_misfits(means_norm: np.ndarray, var_norm: np.ndarray, training: TrainingSet,
                   meas: MeasurementModel, *, log_den: bool = False, grads: bool = False
                   ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Surrogate misfits of ensemble members from their normalized predictions.

    With zt = (z - mu) / s and a = noise_var / v per output (mu, s^2 = v the
    output normalization), a member with mean m and variance V has
    g = sum_q (zt - m)^2 / (a + V), equal to the raw-scale
    sum_q (z - f)^2 / (noise_var + V v). `means_norm` is (..., q, B), outputs
    on the second-last axis, and `var_norm` (..., B). The sum runs one output
    plane `means_norm[..., k, :]` at a time, in output order, and overwrites
    each plane, so pass fresh predictions; planes are fastest contiguous, as
    `GpEnsemble.predict_batch` lays them out.

    Returns (g, sum_q log(a + V) if `log_den` else None, dg/dV if `grads`
    else None), each shaped like `var_norm`; the log sum is grouped as
    `_log_groups` describes. With `grads` the planes are left holding
    dg/dm = -2 (zt - m) / (a + V), and dg/dV = -sum_q ((zt - m) / (a + V))^2.
    """
    q = means_norm.shape[-2]
    if meas.n_outputs != q:
        raise ValueError(f"the measurement has {meas.n_outputs} outputs but the "
                         f"emulator predicts {q}")
    zt = (meas.z - training.out_means) / np.sqrt(training.out_vars)
    a = meas.noise_vars / training.out_vars
    shape = var_norm.shape
    g = np.zeros(shape)
    log_sum = np.zeros(shape) if log_den else None
    coeff_var = np.zeros(shape) if grads else None
    den = np.empty(shape)
    term = np.empty(shape) if grads else None
    if log_den:
        closes, prod = _log_groups(a, var_norm), np.empty(shape)
    opens = True
    for k in range(q):
        resid = np.subtract(zt[k], means_norm[..., k, :], out=means_norm[..., k, :])
        np.add(a[k], var_norm, out=den)
        if grads:
            np.square(resid, out=term)
            term /= den
            g += term
            resid /= den
            coeff_var -= np.square(resid, out=term)
            resid *= -2.0
        else:
            np.square(resid, out=resid)
            resid /= den
            g += resid
        if log_den:
            # `prod` holds the group's running product; the first factor of
            # a group trades buffers with `den` instead of being copied.
            if opens:
                den, prod = prod, den
            else:
                prod *= den
            opens = closes[k]
            if opens:
                log_sum += np.log(prod, out=prod)
    return g, log_sum, coeff_var


def _log_groups(a: np.ndarray, var_norm: np.ndarray) -> np.ndarray:
    """Where the grouped log of `member_misfits` closes a group: (q,) bools,
    True at the last output of each group, in output order.

    The kernel multiplies the factors a_k + V of a group into one product and
    takes one log of it. The groups come from each call's data: log(a_k + V)
    is monotone in V, so over the call's variances (at least 0) its size is
    at most b_k = max(|log a_k|, |log(a_k + max V)|). A group closes before
    the sum of its bounds passes LOG_GROUP_BOUND, so every product of its
    a_k + V is a normal double. A bound that is not finite
    (a NaN or infinite variance) gives its output a group of its own. Heat
    and permeability need one group, so one log per member and row.
    """
    v_max = np.max(var_norm, initial=0.0)
    bounds = np.maximum(np.abs(np.log(a)), np.abs(np.log(a + v_max)))
    closes = np.zeros(a.shape[0], dtype=bool)
    total = 0.0
    for k, bound in enumerate(bounds.tolist()):
        if k and not total + bound <= LOG_GROUP_BOUND:
            closes[k - 1] = True
            total = 0.0
        total += bound
    closes[-1:] = True
    return closes


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(a))) over `axis` (over every entry for None), with the largest
    entry factored out so that no term overflows; -inf where every entry is -inf."""
    a = np.asarray(a, dtype=float)
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True))
    return np.squeeze(out + shift, axis=axis)[()]


def d_restricted_loglik_batch(thetas: np.ndarray, ens: GpEnsemble, meas: MeasurementModel) -> np.ndarray:
    """Surrogate log-likelihood of every row of thetas, DENSITY_BLOCK rows at a time.

    The law is the surrogate's Gaussian-mixture predictive law,
    log L = log sum_j (k_j / J) exp(-g_j / 2) over the J members, with g_j the
    member's misfit and k_j its Gaussian normalizing constant. As
    log k_j = log_norm - sum_q log(a_q + V_j) / 2 (see `member_misfits`),
    log L = logsumexp_j(-(g_j + sum_q log(a_q + V_j)) / 2) + log_norm - log J.
    The log-sum-exp factors out its largest term, so the density is finite
    for any finite inputs regardless of how large the misfits get.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    out = np.empty(thetas.shape[0])
    for lo in range(0, thetas.shape[0], DENSITY_BLOCK):
        out[lo:lo + DENSITY_BLOCK] = _mixture_logsumexp(thetas[lo:lo + DENSITY_BLOCK], ens, meas)
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * ens.training.out_vars))
    out += log_norm - np.log(ens.hyperparams.shape[0])
    return out


def _mixture_logsumexp(block: np.ndarray, ens: GpEnsemble, meas: MeasurementModel) -> np.ndarray:
    """logsumexp_j(-(g_j + sum_q log(a_q + V_j)) / 2) (B,) for one block of rows.

    The sum is taken in place over the misfits g, shifted by its smallest
    exponent. A function of its own, so that the block's (J, B) arrays are
    released before the next block predicts."""
    g, log_den, _ = member_misfits(*ens.predict_batch(block), ens.training, meas, log_den=True)
    g += log_den
    g_star = np.min(g, axis=0)
    g -= g_star
    g *= -0.5
    return np.log(np.sum(np.exp(g, out=g), axis=0)) - 0.5 * g_star
