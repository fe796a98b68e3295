"""Single-point reference versions of library kernels, for the tests only.

The library scores the acquisition gradient for a block of rows at once
(`gpinv.acquisition._misfit_grads_batch`); these one-point forms build the
mean and variance derivatives explicitly and serve as its oracle. The
misfit and likelihood helpers below score one point through the forward
model or through the library's batched kernels. The scalar GP path
(`sq_exp_cov`, `predict`, `log_marginal_likelihood`) checks the batched GP
core, and the one-point sampler and maximizer adapters drive the library's
row-batched `run_chain` and `multistart_maximize_batch` from scalar code.
`forward_subst_ref`, `back_subst_ref`, `se_cov_ref` and `variances_ref` are
the GP core's unit-diagonal substitutions, covariance and predictive
variance in a plainer form, which the core must reproduce bit for bit;
`d_restricted_loglik_summed_logs` is the surrogate density with one log per
output, which the grouped log must reproduce to rounding; and
`d_restricted_loglik_two_step` is the density with the mixture's log taken
in the earlier two steps, which the one-pass log must reproduce to rounding.
The sparse-LU backward-Euler march and the same march in `scipy.fft`'s
cosine transform are the references for the heat model's solve in the cosine
basis matrices, and a sparse LU of the Lagrange-multiplier system is the
reference for the Darcy model's pinned-cell banded Cholesky. Both assemble
their sparse matrices here with `flux_operator`, from per-face coefficients.
"""

from typing import Callable, NamedTuple

import numpy as np
from scipy.fft import dctn, idctn
from scipy.linalg import solve_triangular
from scipy.sparse import bmat as sparse_bmat
from scipy.sparse import coo_matrix
from scipy.sparse import eye as sparse_eye
from scipy.sparse.linalg import splu

from gpinv.acquisition import AcquisitionResult, multistart_maximize_batch
from gpinv.designs import DesignBox
from gpinv.forward_models import (
    DarcyPermeability2D,
    GridSolverConfig,
    HeatSource2D,
    _face_conductivities,
    _neumann_eigenvalues,
    rbf_basis,
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
    DENSITY_BLOCK,
    MeasurementModel,
    _misfit_batch,
    d_restricted_loglik_batch,
    logsumexp,
    member_misfits,
    misfit_of_outputs,
)
from gpinv.mcmc import LogProb, run_chain


def forward_subst_ref(L: np.ndarray, R: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Solve L X = R for unit lower-triangular L row by row: each row's known
    part by a stacked matmul, then R_i - known assigned into X, row 0 included."""
    X = out
    if X is None:
        X = np.empty(np.broadcast_shapes(L.shape[:-2], R.shape[:-2]) + R.shape[-2:])
    for i in range(L.shape[-1]):
        known = (L[..., i:i + 1, :i] @ X[..., :i, :])[..., 0, :]
        X[..., i, :] = R[..., i, :] - known
    return X


def back_subst_ref(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Solve L^T X = R for unit lower-triangular L by `forward_subst_ref` on
    the order-reversed transpose."""
    return forward_subst_ref(L.swapaxes(-1, -2)[..., ::-1, ::-1], R[..., ::-1, :])[..., ::-1, :]


def se_cov_ref(A: np.ndarray, B: np.ndarray, log_scale: np.ndarray, inv_l2: np.ndarray) -> np.ndarray:
    """(J, |A|, |B|) squared-exponential covariances exp(-sum inv_l2 (a - b)^2 + log_scale)
    in `_se_cov`'s rows-major layout: per row of A, the exponent by one matmul
    of [inv_l2, -log_scale] against [(a - b)^2; 1], then negated, then exp."""
    J, p = inv_l2.shape
    coef = np.stack([np.column_stack([inv_l2, -np.broadcast_to(log_scale, (J, A.shape[0]))[:, i]])
                     for i in range(A.shape[0])])
    diff2 = np.stack([np.vstack([((a - B) ** 2).T, np.ones(B.shape[0])]) for a in A])
    K = np.matmul(coef, diff2)
    np.exp(np.negative(K, out=K), out=K)
    return K.transpose(1, 0, 2)


def variances_ref(sigma2: np.ndarray, half: np.ndarray) -> np.ndarray:
    """sigma_c^2 - |L^-1 c|^2 (J, B) from half = L^-1 c (J, n, B), clamped at 0,
    by squaring `half` in place and summing over the design points."""
    half *= half
    variances = sigma2[:, None] - half.sum(axis=1)
    return np.maximum(variances, 0.0, out=variances)


def d_restricted_loglik_summed_logs(thetas: np.ndarray, ens: GpEnsemble,
                                    meas: MeasurementModel) -> np.ndarray:
    """`d_restricted_loglik_batch` with sum_q log(a_q + V) taken as one log per
    output, in output order, and the same blocks, misfits and mixture sum."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    tr = ens.training
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * tr.out_vars))
    a = meas.noise_vars / tr.out_vars
    out = np.empty(thetas.shape[0])
    for lo in range(0, thetas.shape[0], DENSITY_BLOCK):
        means, variances = ens.predict_batch(thetas[lo:lo + DENSITY_BLOCK])
        g = member_misfits(means, variances, tr, meas)[0]
        log_den = np.zeros_like(variances)
        for a_k in a:
            log_den += np.log(a_k + variances)
        g_star = np.min(g, axis=0)
        body = logsumexp(log_norm - 0.5 * log_den - 0.5 * (g - g_star), axis=0)
        out[lo:lo + DENSITY_BLOCK] = -0.5 * g_star + body - np.log(g.shape[0])
    return out


def d_restricted_loglik_two_step(thetas: np.ndarray, ens: GpEnsemble,
                                 meas: MeasurementModel) -> np.ndarray:
    """`d_restricted_loglik_batch` with the mixture's log in two steps: the
    smallest misfit g* factored out first, then
    -g*/2 + logsumexp(log k - (g - g*)/2) - log J over the members, with
    log k = log_norm - sum_q log(a_q + V) / 2; the same blocks and misfits."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * ens.training.out_vars))
    out = np.empty(thetas.shape[0])
    for lo in range(0, thetas.shape[0], DENSITY_BLOCK):
        g, log_den, _ = member_misfits(*ens.predict_batch(thetas[lo:lo + DENSITY_BLOCK]),
                                       ens.training, meas, log_den=True)
        g_star = np.min(g, axis=0)
        body = logsumexp(log_norm - 0.5 * log_den - 0.5 * (g - g_star), axis=0)
        out[lo:lo + DENSITY_BLOCK] = -0.5 * g_star + body - np.log(g.shape[0])
    return out


def hyperparams_from_vector(psi) -> HyperParams:
    """HyperParams from a flat [sigma_c, l_1..l_p] row."""
    psi = np.asarray(psi, dtype=float)
    return HyperParams(sigma_c=float(psi[0]), lengthscales=psi[1:].copy())


def pred_grad(ens: GpEnsemble, theta: np.ndarray):
    """Normalized means/variance and their gradients for every ensemble member.

    Returns (m_norm (J,q), V_norm (J,), dm (J,q,p), dV (J,p)). The kernel's
    exponent carries 1/l^2 with no factor 2, so differentiation brings down
    -2 (theta - x_n) / l^2. In the ensemble's scaled terms (D = diag(L)),
    the mean is (D^-1 c)^T (D C^-1 y) and the variance's gradient is
    -2 (d D^-1 c)^T (D C^-1 c), with D C^-1 c from a forward and a backward
    substitution through the stored unit factors.
    """
    diff = theta[None, :] - ens.training.inputs              # (n, p)
    scaled = _se_cov(ens.training.inputs, theta[None, :], ens._log_scale, ens._inv_l2)  # (J, n, 1)
    cvec = scaled.transpose(0, 2, 1)                         # (J, 1, n)
    m_norm = (cvec @ ens._scaled_W)[:, 0, :]
    half = _forward_subst(ens._unit_L, scaled)               # (J, n, 1)
    V_norm = np.maximum(ens._sigma2 - np.sum(half[:, :, 0] ** 2, axis=1), 0.0)
    grad_c = -2.0 * cvec * diff.T[None, :, :] * ens._inv_l2[:, :, None]  # (J, p, n)
    dm = (grad_c @ ens._scaled_W).transpose(0, 2, 1)
    dV = -2.0 * (grad_c @ _back_subst(ens._unit_L, half))[:, :, 0]
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
    init_positions: np.ndarray | None = None,
) -> np.ndarray:
    """Final walker states after n_steps sweeps: an (n_walkers, d) sample set."""
    chain = run_chain(log_prob, prior, n_walkers, seed, init_positions)
    for _ in range(n_steps):
        samples, _ = next(chain)
    return samples.copy()


def multistart_maximize(value_and_grad, starts: np.ndarray, box: DesignBox) -> AcquisitionResult:
    """`multistart_maximize_batch` for a one-point `value_and_grad(theta) -> (value, gradient)`."""
    def rows(X):
        pairs = [value_and_grad(theta) for theta in X]
        return np.array([v for v, _ in pairs], dtype=float), np.array([g for _, g in pairs], dtype=float)

    return multistart_maximize_batch(rows, starts, box)


def flux_operator(coef_x: np.ndarray, coef_y: np.ndarray):
    """Sparse (n, n) matrix of the sum over faces of coef * (u_a - u_b), from the
    coefficients of the (ny, nx - 1) x-faces and the (ny - 1, nx) y-faces.

    Rows sum to zero by construction, which is the discrete footprint of the
    zero-flux boundary.
    """
    ny, nx = coef_x.shape[0], coef_y.shape[1]
    idx = np.arange(nx * ny).reshape(ny, nx)
    a = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    b = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    c = np.concatenate([coef_x.ravel(), coef_y.ravel()])
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([a, b, b, a])
    vals = np.concatenate([c, c, -c, -c])
    return coo_matrix((vals, (rows, cols)), shape=(nx * ny, nx * ny)).tocsc()


def neumann_laplacian(cfg: GridSolverConfig):
    """Five-point Laplacian with mirrored (zero-flux) boundaries, as a sparse matrix."""
    coef_x = np.full((cfg.ny, cfg.nx - 1), 1.0 / cfg.dx**2)
    coef_y = np.full((cfg.ny - 1, cfg.nx), 1.0 / cfg.dy**2)
    return -flux_operator(coef_x, coef_y)


def heat_fields_sparse(model: HeatSource2D, theta: np.ndarray, cfg: GridSolverConfig
                       ) -> dict[float, np.ndarray]:
    """(ny, nx) heat fields at the model's measurement times by a backward-Euler
    march in physical space, one sparse-LU solve of (I - dt Lap) per step."""
    n_cells = cfg.nx * cfg.ny
    lu = splu(sparse_eye(n_cells, format="csc") - cfg.dt * neumann_laplacian(cfg).tocsc())
    meas_steps = {int(round(tm / cfg.dt)): tm for tm in model.measure_times}
    source_steps = int(round(model.SOURCE_TIME / cfg.dt))
    s = model._source_field(cfg.centers(), np.asarray(theta, dtype=float)).ravel()
    u = np.zeros(n_cells)
    fields = {}
    for step in range(1, max(meas_steps) + 1):
        u = lu.solve(u + (cfg.dt * s if step <= source_steps else 0.0))
        if step in meas_steps:
            fields[meas_steps[step]] = u.reshape(cfg.ny, cfg.nx).copy()
    return fields


def heat_fields_dct(model: HeatSource2D, theta: np.ndarray, cfg: GridSolverConfig
                    ) -> dict[float, np.ndarray]:
    """(ny, nx) heat fields at the model's measurement times by the backward-Euler
    march in the cosine eigenbasis, with `scipy.fft`'s orthonormal DCT-II as the
    transform: the source is transformed once, every mode scaled by
    1 / (1 + dt (lambda_x + lambda_y)) per step and transformed back at the times."""
    damping = 1.0 / (1.0 + cfg.dt * (_neumann_eigenvalues(cfg.ny, cfg.dy)[:, None]
                                     + _neumann_eigenvalues(cfg.nx, cfg.dx)[None, :]))
    meas_steps = {int(round(tm / cfg.dt)): tm for tm in model.measure_times}
    source_steps = int(round(model.SOURCE_TIME / cfg.dt))
    source = model._source_field(cfg.centers(), np.asarray(theta, dtype=float))
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
    multiplier-augmented system [[A, 1], [1^T, 0]] [u; lambda] = [q; 0], with A
    assembled from the model's face conductivities of kappa = rbf_basis @ theta."""
    X, Y = cfg.centers()
    kappa = rbf_basis(np.column_stack([X.ravel(), Y.ravel()])) @ np.asarray(theta, dtype=float)
    A = flux_operator(*_face_conductivities(kappa.reshape(cfg.ny, cfg.nx), cfg))
    ones = np.ones((cfg.nx * cfg.ny, 1))
    augmented = sparse_bmat([[A, ones], [ones.T, None]], format="csc")
    rhs = np.append(model.source_field(cfg).ravel(), 0.0)
    return splu(augmented).solve(rhs)[:-1].reshape(cfg.ny, cfg.nx)
