"""Single-point reference versions of library kernels, for the tests only.

The library scores the acquisition gradient for a block of rows at once
(`gpinv.acquisition._misfit_grads_batch`); these one-point forms build the
mean and variance derivatives explicitly and serve as its oracle. The
misfit and likelihood helpers below score one point through the forward
model or through the library's batched kernels.
"""

import numpy as np

from gpinv.gp import GpEnsemble, HyperParams, _back_subst, _forward_subst, _se_cov
from gpinv.likelihood import (
    MeasurementModel,
    _misfit_batch,
    d_restricted_loglik_batch,
    loglik_of_outputs,
    member_misfits,
    misfit_of_outputs,
)


def hyperparams_from_vector(psi) -> HyperParams:
    """HyperParams from a flat [sigma_c, l_1..l_p] row."""
    psi = np.asarray(psi, dtype=float)
    return HyperParams(sigma_c=float(psi[0]), lengthscales=psi[1:].copy())


def pred_grad(ens: GpEnsemble, theta: np.ndarray):
    """Normalized means/variance and their gradients for every ensemble member.

    Returns (m_norm (J,q), V_norm (J,), dm (J,q,p), dV (J,p)). The kernel's
    exponent carries 1/l^2 with no factor 2, so differentiation brings down
    -2 (theta - x_n) / l^2. C^-1 c comes from a forward and a backward
    substitution through the stored Cholesky factors.
    """
    diff = theta[None, :] - ens.training.inputs              # (n, p)
    cvec = _se_cov(theta[None, :], ens.training.inputs, ens._sigma2, ens._inv_l2)  # (J, 1, n)
    m_norm = (cvec @ ens._weights)[:, 0, :]
    half = _forward_subst(ens._L, cvec.transpose(0, 2, 1))   # (J, n, 1)
    V_norm = np.maximum(ens._sigma2 - np.sum(half[:, :, 0] ** 2, axis=1), 0.0)
    grad_c = -2.0 * cvec * diff.T[None, :, :] * ens._inv_l2[:, :, None]  # (J, p, n)
    dm = (grad_c @ ens._weights).transpose(0, 2, 1)
    dV = -2.0 * (grad_c @ _back_subst(ens._L, half))[:, :, 0]
    return m_norm, V_norm, dm, dV


def misfits_and_grads(ens: GpEnsemble, meas: MeasurementModel, theta: np.ndarray):
    """Per-member surrogate misfits (J,) and their gradients (J, p) at theta."""
    m_norm, V_norm, dm, dV = pred_grad(ens, theta)
    g, resid, den = member_misfits(m_norm, V_norm, ens.training, meas)
    coeff_mean = -2.0 * resid / den                          # (J, q)
    coeff_var = -np.sum(resid**2 / den**2, axis=1)           # (J,)
    grad = (coeff_mean[:, None, :] @ dm)[:, 0, :] + coeff_var[:, None] * dV
    return g, grad


def true_misfit(theta: np.ndarray, forward_model, meas: MeasurementModel) -> float:
    """g(theta) = sum_i (z_i - f_i(theta))^2 / sigma_i^2."""
    return misfit_of_outputs(forward_model.evaluate(theta), meas)


def true_loglik(theta: np.ndarray, forward_model, meas: MeasurementModel) -> float:
    """Gaussian log-likelihood of the data given exact forward outputs."""
    return loglik_of_outputs(forward_model.evaluate(theta), meas)


def gp_misfits(theta: np.ndarray, ens: GpEnsemble, meas: MeasurementModel) -> np.ndarray:
    """Surrogate misfit of every ensemble member at theta, shape (n_psi,)."""
    return _misfit_batch(np.asarray(theta, dtype=float)[None, :], ens, meas)[0]


def d_restricted_loglik(theta: np.ndarray, ens: GpEnsemble, meas: MeasurementModel) -> float:
    """Surrogate log-likelihood at one point (`d_restricted_loglik_batch` on one row)."""
    return d_restricted_loglik_batch(np.asarray(theta, dtype=float)[None, :], ens, meas)[0]
