"""Squared-exponential Gaussian process regression with an ensemble of
hyperparameter samples.

A single predictor is trained by conditioning on normalized outputs; the fully
Bayesian treatment keeps many hyperparameter vectors at once and treats the
resulting predictive distribution as an equally weighted Gaussian mixture.
All outputs of a multi-output model share one covariance function and are
conditionally independent given it, which is what makes a single Cholesky
factor per hyperparameter vector sufficient.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .errors import IllConditionedKernelError

log = logging.getLogger(__name__)

# Diagonal jitter policy: start at BASE_JITTER * sigma_c^2, escalate by
# JITTER_GROWTH until MAX_JITTER * sigma_c^2, then give up.
BASE_JITTER = 1e-10
MAX_JITTER = 1e-6
JITTER_GROWTH = 10.0

# Columns whose population variance falls below VAR_FLOOR * max(1, mean^2)
# are treated as constant: scaled to zeros, variance pinned at the floor.
VAR_FLOOR = 1e-12

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class HyperParams:
    """Signal standard deviation and per-dimension length-scales."""

    sigma_c: float
    lengthscales: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lengthscales", np.atleast_1d(np.asarray(self.lengthscales, dtype=float)))
        if not self.sigma_c > 0.0:
            raise ValueError(f"sigma_c must be positive, got {self.sigma_c}")
        if not np.all(self.lengthscales > 0.0):
            raise ValueError("all length-scales must be positive")

    @property
    def input_dim(self) -> int:
        return self.lengthscales.shape[0]

    def as_vector(self) -> np.ndarray:
        """Flat (p+1,) vector: sigma_c first, then the length-scales."""
        return np.concatenate(([self.sigma_c], self.lengthscales))


def normalize_outputs(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center and scale each output column to zero mean and unit variance.

    Uses the population (1/n) variance. Near-constant columns hit a variance
    floor and are scaled to exact zeros so the downstream fit sees a
    well-posed, if uninformative, target.

    Returns (scaled, means, vars) where scaled is (n, q).
    """
    raw = np.atleast_2d(np.asarray(raw, dtype=float))
    means = raw.mean(axis=0)
    variances = raw.var(axis=0)  # population convention
    floor = VAR_FLOOR * np.maximum(1.0, means**2)
    degenerate = variances < floor
    variances = np.where(degenerate, floor, variances)
    scaled = (raw - means) / np.sqrt(variances)
    scaled[:, degenerate] = 0.0
    return scaled, means, variances


@dataclass(frozen=True)
class TrainingSet:
    """Design inputs with raw and normalized forward-model outputs.

    Immutable; growing the design produces a new instance with freshly
    computed normalization statistics.
    """

    inputs: np.ndarray        # (n, p)
    raw_outputs: np.ndarray   # (n, q)
    out_means: np.ndarray     # (q,)
    out_vars: np.ndarray      # (q,)
    scaled_outputs: np.ndarray  # (n, q)

    @classmethod
    def from_data(cls, inputs: np.ndarray, raw_outputs: np.ndarray) -> "TrainingSet":
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        raw_outputs = np.asarray(raw_outputs, dtype=float)
        if raw_outputs.ndim == 1:
            raw_outputs = raw_outputs[:, None]
        if inputs.shape[0] != raw_outputs.shape[0]:
            raise ValueError(
                f"row mismatch: {inputs.shape[0]} inputs vs {raw_outputs.shape[0]} output rows"
            )
        if inputs.shape[0] < 1:
            raise ValueError("training set must contain at least one point")
        scaled, means, variances = normalize_outputs(raw_outputs)
        return cls(inputs, raw_outputs, means, variances, scaled)

    @property
    def n_train(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.raw_outputs.shape[1]

    def has_input(self, theta: np.ndarray) -> bool:
        """True when theta matches a design input to 1e-12 in every coordinate."""
        theta = np.asarray(theta, dtype=float).reshape(1, -1)
        return bool(np.any(np.all(np.abs(self.inputs - theta) <= 1e-12, axis=1)))

    def augmented(self, theta: np.ndarray, outputs: np.ndarray) -> "TrainingSet":
        """New training set with one more (theta, f(theta)) pair."""
        theta = np.asarray(theta, dtype=float).reshape(1, -1)
        if self.has_input(theta):
            raise ValueError(f"duplicate training input {theta.ravel()}")
        outputs = np.asarray(outputs, dtype=float).reshape(1, -1)
        return TrainingSet.from_data(
            np.vstack([self.inputs, theta]),
            np.vstack([self.raw_outputs, outputs]),
        )


def _se_cov(A: np.ndarray, B: np.ndarray, sigma2: np.ndarray, inv_l2: np.ndarray) -> np.ndarray:
    """(J, |A|, |B|) squared-exponential covariances between the rows of A and B,
    one slab per row of sigma2 (J,) and inv_l2 = 1/l^2 (J, p)."""
    diff2 = (A[:, None, :] - B[None, :, :]) ** 2  # (|A|, |B|, p)
    K = (inv_l2 @ diff2.reshape(-1, diff2.shape[2]).T).reshape(-1, *diff2.shape[:2])
    np.exp(np.negative(K, out=K), out=K)
    K *= sigma2[:, None, None]
    return K


@dataclass(frozen=True)
class GpFit:
    """A single-hyperparameter predictor: Cholesky factor plus per-output weights."""

    chol: np.ndarray       # (n, n) lower triangular factor of C + jitter*I
    weights: np.ndarray    # (n, q), column i solves C v_i = scaled_outputs[:, i]
    hyperparams: HyperParams
    training: TrainingSet
    jitter: float          # absolute diagonal shift actually applied


# perfbench/tracing.py patches gpinv.mcmc.fit_single, so it stays, and with it GpFit and HyperParams.
def fit_single(training: TrainingSet, psi: HyperParams, jitter: float = BASE_JITTER) -> GpFit:
    """Factorize the training covariance and solve for the predictive weights.

    `jitter` is the relative starting value for the diagonal shift
    (absolute shift = jitter * sigma_c^2); it escalates by factors of
    10 up to MAX_JITTER before failing. Passing 0 attempts a single raw
    factorization with no safeguard.
    """
    if psi.input_dim != training.input_dim:
        raise ValueError(
            f"hyperparameter dimension {psi.input_dim} != input dimension {training.input_dim}"
        )
    Psi = psi.as_vector()[None, :]
    L, shift = _factorize(training.inputs, Psi, jitter)
    if np.isnan(shift[0]):
        raise _factorization_error(training.inputs, Psi, jitter, np.isnan(shift))
    if shift[0] > jitter * psi.sigma_c**2:
        log.debug("jitter escalated to a shift of %.1e for n_train=%d", shift[0], training.n_train)
    weights = cho_solve((L[0], True), training.scaled_outputs)
    return GpFit(L[0], weights, psi, training, float(shift[0]))


def _factorize(X: np.ndarray, Psi: np.ndarray, jitter: float) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of the covariance of X for every row of Psi = [sigma_c, l_1..l_p].

    Every row is tried at the relative shift `jitter` (absolute shift
    jitter * sigma_c^2); the rows that fail escalate together by factors of
    JITTER_GROWTH up to MAX_JITTER, and jitter = 0 tries the raw covariance
    alone. Returns the factor stack (m, n, n) and the absolute shift per row
    (m,), both NaN for a row that no level factorized.
    """
    sigma2 = Psi[:, 0] ** 2
    C = _se_cov(X, X, sigma2, 1.0 / Psi[:, 1:] ** 2)
    eye = np.eye(X.shape[0])
    levels = _jitter_levels(jitter)
    shift = levels[0] * sigma2
    L, ok = _batched_cholesky(C + shift[:, None, None] * eye)
    for level in levels[1:]:
        if ok.all():
            break
        failed = np.flatnonzero(~ok)
        shift[failed] = level * sigma2[failed]
        L[failed], ok[failed] = _batched_cholesky(C[failed] + shift[failed, None, None] * eye)
    L[~ok] = np.nan
    shift[~ok] = np.nan
    return L, shift


def _jitter_levels(jitter: float) -> list[float]:
    """Relative shifts tried from `jitter`: x JITTER_GROWTH up to MAX_JITTER; 0 tries 0 alone."""
    levels = [jitter]
    while 0.0 < levels[-1] * JITTER_GROWTH <= MAX_JITTER * (1.0 + 1e-12):
        levels.append(levels[-1] * JITTER_GROWTH)
    return levels


def _factorization_error(X: np.ndarray, Psi: np.ndarray, jitter: float,
                         failed: np.ndarray) -> IllConditionedKernelError:
    """Error for the `failed` rows of Psi: the last jitter level tried, cond of the first row."""
    first = int(np.flatnonzero(failed)[0])
    cond = _condition_estimate(X, Psi[first:first + 1])
    return IllConditionedKernelError(
        f"covariance factorization failed for {failed.sum()} of {failed.size} rows at "
        f"relative jitter {_jitter_levels(jitter)[-1]:g}, the last level tried "
        f"(n_train={X.shape[0]}, cond~{cond:.2e})",
        cond_estimate=cond, failed=failed,
    )


def _condition_estimate(X: np.ndarray, Psi: np.ndarray) -> float:
    """2-norm condition number of the unshifted covariance of X for the one row of Psi."""
    C = _se_cov(X, X, Psi[:, 0] ** 2, 1.0 / Psi[:, 1:] ** 2)[0]
    try:
        return float(np.linalg.cond(C))
    except np.linalg.LinAlgError:
        return float("inf")


def _lml_batch(training: TrainingSet, Psi: np.ndarray) -> np.ndarray:
    """Vectorized log marginal likelihood over rows of Psi = [sigma_c, l_1..l_p].

    Rows whose covariance cannot be factorized anywhere on the jitter ladder
    come back as -inf instead of raising; MCMC treats them as zero-probability
    states. Invalid (non-positive) hyperparameter rows are -inf as well.
    """
    Psi = np.atleast_2d(np.asarray(Psi, dtype=float))
    out = np.full(Psi.shape[0], -np.inf)
    valid = np.all(Psi > 0.0, axis=1)
    if not np.any(valid):
        return out
    L, shift = _factorize(training.inputs, Psi[valid], BASE_JITTER)
    Y = training.scaled_outputs
    n, q = Y.shape
    quad = np.sum(_forward_subst(L, Y) ** 2, axis=(1, 2))
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
    vals = -0.5 * quad - 0.5 * q * (logdet + n * LOG_2PI)
    out[valid] = np.where(np.isnan(shift), -np.inf, vals)
    return out


def _forward_subst(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Solve L X = R for a stack of lower-triangular factors L (..., n, n).

    R is (..., n, k) and broadcasts against the stack. Row i of X comes from
    rows 0..i-1 by one stacked matmul, so the loop runs n times whatever the
    stack size.
    """
    X = np.empty(np.broadcast_shapes(L.shape[:-2], R.shape[:-2]) + R.shape[-2:])
    for i in range(L.shape[-1]):
        known = (L[..., i:i + 1, :i] @ X[..., :i, :])[..., 0, :]
        X[..., i, :] = (R[..., i, :] - known) / L[..., i, i, None]
    return X


def _back_subst(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Solve L^T X = R: forward substitution on the order-reversed transpose."""
    return _forward_subst(L.swapaxes(-1, -2)[..., ::-1, ::-1], R[..., ::-1, :])[..., ::-1, :]


def _batched_cholesky(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Cholesky with a per-matrix success mask instead of a raise."""
    try:
        return np.linalg.cholesky(mats), np.ones(mats.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    ok = np.zeros(mats.shape[0], dtype=bool)
    out = np.zeros_like(mats)
    for k in range(mats.shape[0]):
        try:
            out[k] = np.linalg.cholesky(mats[k])
            ok[k] = True
        except np.linalg.LinAlgError:
            pass
    return out, ok


class GpEnsemble:
    """Fitted predictors for J hyperparameter rows [sigma_c, l_1..l_p] over one training set.

    One `_factorize` call gives the factor stack `_L` (J, n, n) and the
    absolute diagonal shift of every member, `jitter_shifts` (J,); the core's
    substitutions give the weights `_weights` (J, n, q). A row that no jitter
    level factorizes raises IllConditionedKernelError with the `failed` mask."""

    def __init__(self, training: TrainingSet, hyperparams: np.ndarray):
        hyperparams = np.atleast_2d(np.asarray(hyperparams, dtype=float))
        if len(hyperparams) < 1 or hyperparams.shape[1] != training.input_dim + 1:
            raise ValueError(f"need (J >= 1, {training.input_dim + 1}) hyperparameter rows, "
                             f"got {hyperparams.shape}")
        if not np.all(hyperparams > 0.0):
            raise ValueError("hyperparameters must be positive")
        L, shift = _factorize(training.inputs, hyperparams, BASE_JITTER)
        if np.any(np.isnan(shift)):
            raise _factorization_error(training.inputs, hyperparams, BASE_JITTER, np.isnan(shift))
        self.training = training
        self.hyperparams = hyperparams
        self._sigma2 = hyperparams[:, 0] ** 2
        self._inv_l2 = 1.0 / hyperparams[:, 1:] ** 2
        self._L = L
        self._weights = _back_subst(L, _forward_subst(L, training.scaled_outputs))
        self.jitter_shifts = shift
        escalated = int(np.count_nonzero(shift > BASE_JITTER * self._sigma2))
        if escalated:
            log.debug("%d of %d members escalated past the base jitter for n_train=%d",
                      escalated, len(shift), training.n_train)

    @property
    def n_psi(self) -> int:
        return self.hyperparams.shape[0]

    def _cross(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cross-covariances c (J, B, n), normalized means c^T W (J, B, q) and
        L^-1 c (J, n, B) at each row of thetas: the (J, B, n) predictive step."""
        cvec = _se_cov(thetas, self.training.inputs, self._sigma2, self._inv_l2)
        return cvec, cvec @ self._weights, _forward_subst(self._L, cvec.transpose(0, 2, 1))

    def predict_batch(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalized predictive means (B, J, q) and variances (B, J) at each row.

        mean = c^T C^-1 y from the stored weights, variance =
        sigma_c^2 - |L^-1 c|^2 from the Cholesky factor.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        _, means, half = self._cross(thetas)
        half *= half
        variances = self._sigma2[:, None] - half.sum(axis=1)
        return means.transpose(1, 0, 2), np.maximum(variances.T, 0.0)

    def predict_with_pullback(self, thetas: np.ndarray):
        """Normalized means (J, B, q), variances (J, B) and their pullback at each row.

        `pullback(coeff_mean (J, B, q), coeff_var (J, B))` returns the gradients
        (B, J, p) of sum_q coeff_mean * mean + coeff_var * variance per member
        and row. The chain rule runs through the cross-covariance c alone, so
        the coefficients fold into one n-vector per member and row,
        w = c * (W coeff_mean - 2 coeff_var C^-1 c), and the gradient is
        -2 inv_l2 * (w^T (theta - x_n)): one matmul, no (J, B, p, q) tensor of
        mean derivatives. C^-1 c takes one more (backward) substitution.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        cvec, means, half = self._cross(thetas)
        var = np.maximum(self._sigma2[:, None] - np.sum(half**2, axis=1), 0.0)

        def pullback(coeff_mean: np.ndarray, coeff_var: np.ndarray) -> np.ndarray:
            cinv_c = _back_subst(self._L, half).transpose(0, 2, 1)                 # (J, B, n)
            w = cvec * (coeff_mean @ self._weights.transpose(0, 2, 1)
                        - 2.0 * coeff_var[..., None] * cinv_c)
            diff = thetas[:, None, :] - self.training.inputs[None, :, :]          # (B, n, p)
            return -2.0 * (w.transpose(1, 0, 2) @ diff) * self._inv_l2

        return means, var, pullback
