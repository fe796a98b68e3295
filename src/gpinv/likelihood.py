"""Misfit functions and measurement likelihoods.

The true misfit weighs squared residuals by the noise variances alone; the
surrogate misfit inflates each denominator with the predictive variance of
the emulator, so untested regions are judged more leniently. The surrogate
log-likelihood marginalizes over the hyperparameter ensemble, producing a
Gaussian-mixture likelihood evaluated through a log-sum-exp so that huge
misfits stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gp import GpEnsemble, TrainingSet

# Rows per predict call in d_restricted_loglik_batch: a block holds the
# predictive means (members x outputs x rows) and the cross-covariances
# (members x design points x rows), which L^-1 c overwrites in place, and a
# posterior's start-up pool scores thousands of rows; the misfit kernel
# itself adds only (members, rows) buffers.
DENSITY_BLOCK = 100


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
    else None), each shaped like `var_norm`. With `grads` the planes are left
    holding dg/dm = -2 (zt - m) / (a + V), and dg/dV = -sum_q ((zt - m) / (a + V))^2.
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
    den, term = np.empty(shape), np.empty(shape)
    for k in range(q):
        resid = np.subtract(zt[k], means_norm[..., k, :], out=means_norm[..., k, :])
        np.add(a[k], var_norm, out=den)
        np.square(resid, out=term)
        term /= den
        g += term
        if grads:
            resid /= den
            coeff_var -= np.square(resid, out=term)
            resid *= -2.0
        if log_den:
            log_sum += np.log(den, out=den)
    return g, log_sum, coeff_var


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

    The law is the surrogate's Gaussian-mixture predictive law:
    log L = -g*/2 + log sum_j (k_j / n_psi) exp(-(g_j - g*)/2) with
    g* = min_j g_j and k_j the Gaussian normalizing constant of component j.
    Finite for any finite inputs regardless of how large the misfits get.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * ens.training.out_vars))
    out = np.empty(thetas.shape[0])
    for lo in range(0, thetas.shape[0], DENSITY_BLOCK):
        block = thetas[lo:lo + DENSITY_BLOCK]
        g, log_den, _ = member_misfits(*ens.predict_batch(block), ens.training, meas,
                                       log_den=True)                             # (J, B) x2
        log_k = log_norm - 0.5 * log_den                                          # (J, B)
        g_star = np.min(g, axis=0)
        body = logsumexp(log_k - 0.5 * (g - g_star), axis=0)
        out[lo:lo + DENSITY_BLOCK] = -0.5 * g_star + body - np.log(g.shape[0])
    return out
