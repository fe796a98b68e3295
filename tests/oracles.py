"""Single-point reference versions of library kernels, for the tests only.

The library scores the acquisition gradient for a block of rows at once
(`gpinv.acquisition._misfit_grads_batch`); these one-point forms build the
mean and variance derivatives explicitly and serve as its oracle. The
misfit and likelihood helpers below score one point through the forward
model or through the library's batched kernels. The scalar GP path
(`sq_exp_cov`, `predict`, `log_marginal_likelihood`) checks the batched GP
core, and the one-point sampler and maximizer adapters drive the library's
row-batched `run_chain` and `multistart_maximize_batch` from scalar code.
The sparse-LU backward-Euler march and the same march in `scipy.fft`'s
cosine transform are the references for the heat model's solve in the cosine
basis matrices, and the Lagrange-multiplier system is the reference for the
Darcy model's pinned-cell solve.
"""

from typing import Callable, NamedTuple

import numpy as np
from scipy.fft import dctn, idctn
from scipy.linalg import solve_triangular
from scipy.sparse import bmat as sparse_bmat
from scipy.sparse import eye as sparse_eye
from scipy.sparse.linalg import splu

from gpinv.acquisition import AcquisitionResult, multistart_maximize_batch
from gpinv.designs import DesignBox
from gpinv.forward_models import (
    DarcyPermeability2D,
    GridSolverConfig,
    HeatSource2D,
    _CellGrid,
    _face_pairs,
    _flux_operator,
    _neumann_eigenvalues,
)
from gpinv.gp import (
    GpEnsemble,
    GpFit,
    HyperParams,
    TrainingSet,
    _back_subst,
    _factorization_error,
    _forward_subst,
    _lml_batch,
    _se_cov,
)
from gpinv.likelihood import (
    MeasurementModel,
    _misfit_batch,
    d_restricted_loglik_batch,
    misfit_of_outputs,
)
from gpinv.mcmc import LogProb, run_chain


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
    tr = ens.training
    resid = (meas.z - tr.out_means) / np.sqrt(tr.out_vars) - m_norm  # (J, q)
    den = meas.noise_vars / tr.out_vars + V_norm[:, None]              # (J, q)
    g = np.sum(resid**2 / den, axis=1)
    coeff_mean = -2.0 * resid / den                          # (J, q)
    coeff_var = -np.sum(resid**2 / den**2, axis=1)           # (J,)
    grad = (coeff_mean[:, None, :] @ dm)[:, 0, :] + coeff_var[:, None] * dV
    return g, grad


def true_misfit(theta: np.ndarray, forward_model, meas: MeasurementModel) -> float:
    """g(theta) = sum_i (z_i - f_i(theta))^2 / sigma_i^2."""
    return misfit_of_outputs(forward_model.evaluate(theta), meas)


def true_loglik(theta: np.ndarray, forward_model, meas: MeasurementModel) -> float:
    """Gaussian log-likelihood of the data given exact forward outputs:
    -(g + sum_i log(2 pi sigma_i^2)) / 2 with g the misfit."""
    g = true_misfit(theta, forward_model, meas)
    return -0.5 * (g + float(np.sum(np.log(2.0 * np.pi * meas.noise_vars))))


def gp_misfits(theta: np.ndarray, ens: GpEnsemble, meas: MeasurementModel) -> np.ndarray:
    """Surrogate misfit of every ensemble member at theta, shape (n_psi,)."""
    return _misfit_batch(np.asarray(theta, dtype=float)[None, :], ens, meas)[:, 0]


def d_restricted_loglik(theta: np.ndarray, ens: GpEnsemble, meas: MeasurementModel) -> float:
    """Surrogate log-likelihood at one point (`d_restricted_loglik_batch` on one row)."""
    return d_restricted_loglik_batch(np.asarray(theta, dtype=float)[None, :], ens, meas)[0]


def sq_exp_cov(a: np.ndarray, b: np.ndarray, psi: HyperParams) -> float:
    """Squared-exponential covariance sigma_c^2 * exp(-sum((a-b)^2 / l^2))."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape or a.shape[0] != psi.input_dim:
        raise ValueError(
            f"dimension mismatch: a{a.shape}, b{b.shape}, lengthscales ({psi.input_dim},)"
        )
    r2 = np.sum((a - b) ** 2 / psi.lengthscales**2)
    return float(psi.sigma_c**2 * np.exp(-r2))


def predict(fit: GpFit, theta: np.ndarray) -> tuple[np.ndarray, float]:
    """Predictive means (per output, normalized scale) and shared variance at theta.

    mean_i = c^T C^-1 y_i, variance = c(theta,theta) - c^T C^-1 c, clamped at 0.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    psi = fit.hyperparams
    diff2 = (fit.training.inputs - theta) ** 2
    c = psi.sigma_c**2 * np.exp(-diff2 @ (1.0 / psi.lengthscales**2))
    means = c @ fit.weights
    half = solve_triangular(fit.chol, c, lower=True)
    variance = psi.sigma_c**2 - float(half @ half)
    return means, max(variance, 0.0)


def log_marginal_likelihood(training: TrainingSet, psi: HyperParams) -> float:
    """Sum over outputs of log N(scaled_outputs_i | 0, C_psi), via Cholesky."""
    Psi = psi.as_vector()[None, :]
    value = _lml_batch(training, Psi)[0]
    if not np.isfinite(value):
        raise _factorization_error(training.inputs, Psi, np.array([True]))
    return float(value)


class EnsemblePrediction(NamedTuple):
    """Per-hyperparameter predictive summaries at one input point."""

    means: np.ndarray           # (n_psi, q), raw output scale
    norm_variances: np.ndarray  # (n_psi,), shared normalized-scale variance
    cov_diags: np.ndarray       # (n_psi, q), diagonal of the rescaled covariance


def ensemble_predict_vector(ens: GpEnsemble, theta: np.ndarray) -> EnsemblePrediction:
    """All per-hyperparameter mean vectors and covariances at theta, raw scale.

    Rescaling: mean_i = sqrt(V_i) * m_norm_i + m_i and the covariance diagonal
    is V_norm * V_i per output.
    """
    means_norm, var_norm = ens.predict_batch(np.asarray(theta, dtype=float)[None, :])
    means_norm, var_norm = means_norm.transpose(2, 0, 1), var_norm.T
    tr = ens.training
    means = means_norm[0] * np.sqrt(tr.out_vars) + tr.out_means
    cov_diags = var_norm[0][:, None] * tr.out_vars[None, :]
    return EnsemblePrediction(means, var_norm[0], cov_diags)


def vectorize_rows(f: Callable[[np.ndarray], float]) -> LogProb:
    """Adapt a scalar log-probability f(point) to the row-batched convention."""

    def batched(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return np.array([float(f(row)) for row in points])

    return batched


def run_sampler(
    log_prob: LogProb,
    prior: DesignBox,
    n_walkers: int = 200,
    n_steps: int = 400,
    seed: int = 0,
) -> np.ndarray:
    """Final walker states after n_steps sweeps: an (n_walkers, d) sample set."""
    samples, _, _ = run_chain(log_prob, prior, n_walkers, n_steps, seed)
    return samples


def multistart_maximize(value_and_grad, starts: np.ndarray, box: DesignBox) -> AcquisitionResult:
    """`multistart_maximize_batch` for a one-point `value_and_grad(theta) -> (value, gradient)`."""
    def rows(X):
        pairs = [value_and_grad(theta) for theta in X]
        return np.array([v for v, _ in pairs], dtype=float), np.array([g for _, g in pairs], dtype=float)

    return multistart_maximize_batch(rows, starts, box)


def neumann_laplacian(grid: _CellGrid):
    """Five-point Laplacian with mirrored (zero-flux) boundaries, as a sparse matrix."""
    ax, _, ay, _ = _face_pairs(grid.nx, grid.ny)
    coef_x = np.full(ax.size, 1.0 / grid.dx**2)
    coef_y = np.full(ay.size, 1.0 / grid.dy**2)
    return -_flux_operator(grid.nx, grid.ny, coef_x, coef_y)


def heat_fields_sparse(model: HeatSource2D, theta: np.ndarray, cfg: GridSolverConfig
                       ) -> dict[float, np.ndarray]:
    """(ny, nx) heat fields at the model's measurement times by a backward-Euler
    march in physical space, one sparse-LU solve of (I - dt Lap) per step."""
    grid = _CellGrid(cfg.nx, cfg.ny)
    n_cells = cfg.nx * cfg.ny
    lu = splu(sparse_eye(n_cells, format="csc") - cfg.dt * neumann_laplacian(grid).tocsc())
    meas_steps = {int(round(tm / cfg.dt)): tm for tm in model.measure_times}
    source_steps = int(round(model.SOURCE_TIME / cfg.dt))
    s = model._source_field(grid, np.asarray(theta, dtype=float)).ravel()
    u = np.zeros(n_cells)
    fields = {}
    for step in range(1, max(meas_steps) + 1):
        u = lu.solve(u + (cfg.dt * s if step <= source_steps else 0.0))
        if step in meas_steps:
            fields[meas_steps[step]] = u.reshape(grid.ny, grid.nx).copy()
    return fields


def heat_fields_dct(model: HeatSource2D, theta: np.ndarray, cfg: GridSolverConfig
                    ) -> dict[float, np.ndarray]:
    """(ny, nx) heat fields at the model's measurement times by the backward-Euler
    march in the cosine eigenbasis, with `scipy.fft`'s orthonormal DCT-II as the
    transform: the source is transformed once, every mode scaled by
    1 / (1 + dt (lambda_x + lambda_y)) per step and transformed back at the times."""
    grid = _CellGrid(cfg.nx, cfg.ny)
    damping = 1.0 / (1.0 + cfg.dt * (_neumann_eigenvalues(grid.ny, grid.dy)[:, None]
                                     + _neumann_eigenvalues(grid.nx, grid.dx)[None, :]))
    meas_steps = {int(round(tm / cfg.dt)): tm for tm in model.measure_times}
    source_steps = int(round(model.SOURCE_TIME / cfg.dt))
    source = model._source_field(grid, np.asarray(theta, dtype=float))
    kick = dctn(cfg.dt * source, type=2, norm="ortho")
    modes = np.zeros_like(kick)
    fields = {}
    for step in range(1, max(meas_steps) + 1):
        if step <= source_steps:
            modes += kick
        modes *= damping
        if step in meas_steps:
            fields[meas_steps[step]] = idctn(modes, type=2, norm="ortho")
    return fields


def darcy_field_augmented(model: DarcyPermeability2D, theta: np.ndarray, cfg: GridSolverConfig
                          ) -> np.ndarray:
    """(ny, nx) zero-mean Darcy pressure from one sparse-LU solve of the
    multiplier-augmented system [[A, 1], [1^T, 0]] [u; lambda] = [q; 0]."""
    grid, A = model.operator(np.asarray(theta, dtype=float), cfg)
    ones = np.ones((cfg.nx * cfg.ny, 1))
    augmented = sparse_bmat([[A, ones], [ones.T, None]], format="csc")
    rhs = np.append(model.source_field(grid).ravel(), 0.0)
    return splu(augmented).solve(rhs)[:-1].reshape(cfg.ny, cfg.nx)
