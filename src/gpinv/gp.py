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

from .errors import IllConditionedKernelError

log = logging.getLogger(__name__)

# The jitter ladder: the relative diagonal shifts tried in order, each
# applied as level * sigma_c^2; a row that fails the last level is given up.
JITTER_LEVELS = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

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
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(raw_outputs))):
            raise ValueError("training inputs and outputs must be finite")
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


def _se_cov(A: np.ndarray, B: np.ndarray, log_scale: np.ndarray, inv_l2: np.ndarray) -> np.ndarray:
    """(J, |A|, |B|) squared-exponential covariances exp(-sum inv_l2 (a - b)^2 + log_scale)
    between the rows of A and B, one slab per row of inv_l2 = 1/l^2 (J, p).

    `log_scale` (J, |A|), or (J, 1) for one per member, is added in the
    exponent: log sigma^2 gives the covariances, and log sigma^2 - log L_ii
    gives them divided by the factor's diagonal, which is what the unit
    factor's substitutions take (see `GpEnsemble`). The exponent of row a is
    one matmul, [-inv_l2, log_scale_a] (J, p + 1) against [(a - b)^2; 1]
    (p + 1, |B|), so the offset costs no pass of its own. The result is a view
    of a rows-major (|A|, J, |B|) buffer: the plane K[:, i, :] of each row of
    A is one contiguous (J, |B|) array, so a substitution over the rows of A
    reads and writes whole planes."""
    J, p = inv_l2.shape
    coef = np.empty((A.shape[0], J, p + 1))
    # -inv_l2 negates every product and sum exactly, as rounding is symmetric in sign.
    np.negative(inv_l2, out=coef[:, :, :p])
    coef[:, :, p] = log_scale.T
    diff2 = np.empty((A.shape[0], p + 1, B.shape[0]))
    np.square(A[:, :, None] - B.T[None, :, :], out=diff2[:, :p, :])
    diff2[:, p, :] = 1.0
    K = np.matmul(coef, diff2)
    return np.exp(K, out=K).transpose(1, 0, 2)


def _train_cov(X: np.ndarray, Psi: np.ndarray) -> np.ndarray:
    """(m, n, n) members-major training covariances of X for every row of Psi.

    One zero row against the n^2 differences X_i - X_j makes `_se_cov`'s
    rows-major buffer (1, m, n^2), which is the members-major stack: one
    gemm, and the reshape copies nothing."""
    n, p = X.shape
    diffs = (X[:, None, :] - X[None, :, :]).reshape(n * n, p)
    return _se_cov(np.zeros((1, p)), diffs, np.log(Psi[:, :1] ** 2), 1.0 / Psi[:, 1:] ** 2).reshape(-1, n, n)


@dataclass(frozen=True)
class GpFit:
    """A single-hyperparameter predictor: Cholesky factor plus per-output weights."""

    chol: np.ndarray       # (n, n) lower triangular factor of C + jitter*I
    weights: np.ndarray    # (n, q), column i solves C v_i = scaled_outputs[:, i]
    hyperparams: HyperParams
    training: TrainingSet
    jitter: float          # absolute diagonal shift actually applied


# perfbench/tracing.py patches gpinv.mcmc.fit_single, so it stays, and with it GpFit and HyperParams.
def fit_single(training: TrainingSet, psi: HyperParams) -> GpFit:
    """Factorize the training covariance on the jitter ladder and solve for
    the predictive weights."""
    if psi.input_dim != training.input_dim:
        raise ValueError(
            f"hyperparameter dimension {psi.input_dim} != input dimension {training.input_dim}"
        )
    Psi = psi.as_vector()[None, :]
    L, shift = _factorize(training.inputs, Psi)
    if np.isnan(shift[0]):
        raise _factorization_error(training.inputs, Psi, np.isnan(shift))
    if shift[0] > JITTER_LEVELS[0] * psi.sigma_c**2:
        log.debug("jitter escalated to a shift of %.1e for n_train=%d", shift[0], training.n_train)
    unit, diag = _unit_factor(L.copy())
    weights = _scaled_weights(unit, diag, training.scaled_outputs)[0] / diag[0, :, None]
    return GpFit(L[0], weights, psi, training, float(shift[0]))


def _factorize(X: np.ndarray, Psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of the covariance of X for every row of Psi = [sigma_c, l_1..l_p].

    Every row is tried at the first level of JITTER_LEVELS (absolute shift
    level * sigma_c^2); the rows that fail go up the ladder together.
    Returns the factor stack (m, n, n) and the absolute shift per row (m,),
    both NaN for a row that no level factorized.
    """
    sigma2 = Psi[:, 0] ** 2
    C = _train_cov(X, Psi)
    eye = np.eye(X.shape[0])
    shift = JITTER_LEVELS[0] * sigma2
    # The shift is added to the diagonal alone: the same bits as C + shift * I.
    shifted = C.copy()
    shifted.reshape(C.shape[0], -1)[:, ::X.shape[0] + 1] += shift[:, None]
    L, ok = _batched_cholesky(shifted)
    for level in JITTER_LEVELS[1:]:
        if ok.all():
            break
        failed = np.flatnonzero(~ok)
        shift[failed] = level * sigma2[failed]
        L[failed], ok[failed] = _batched_cholesky(C[failed] + shift[failed, None, None] * eye)
    L[~ok] = np.nan
    shift[~ok] = np.nan
    return L, shift


def _factorization_error(X: np.ndarray, Psi: np.ndarray, failed: np.ndarray) -> IllConditionedKernelError:
    """Error for the `failed` rows of Psi: the last jitter level, the 2-norm
    condition number of the unshifted covariance of the first failed row."""
    first = int(np.flatnonzero(failed)[0])
    try:
        cond = float(np.linalg.cond(_train_cov(X, Psi[first:first + 1])[0]))
    except np.linalg.LinAlgError:
        cond = float("inf")
    return IllConditionedKernelError(
        f"covariance factorization failed for {failed.sum()} of {failed.size} rows at "
        f"relative jitter {JITTER_LEVELS[-1]:g}, the last level tried "
        f"(n_train={X.shape[0]}, cond~{cond:.2e})",
        cond_estimate=cond, failed=failed,
    )


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
    L, shift = _factorize(training.inputs, Psi[valid])
    Y = training.scaled_outputs
    n, q = Y.shape
    # With the column-scaled unit factor Lcol = L D^-1, L^-1 Y = D^-1 Lcol^-1 Y:
    # the substitution reads Y as it is, and D divides only the (m, n) row norms.
    diag = np.diagonal(L, axis1=1, axis2=2).copy()
    L /= diag[:, None, :]
    half = _forward_subst(L, Y)
    quad = np.sum(np.einsum("jik,jik->ji", half, half) / diag**2, axis=1)
    logdet = 2.0 * np.sum(np.log(diag), axis=1)
    vals = -0.5 * quad - 0.5 * q * (logdet + n * LOG_2PI)
    out[valid] = np.where(np.isnan(shift), -np.inf, vals)
    return out


def _unit_factor(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a stack of Cholesky factors L (..., n, n) into the unit factor
    D^-1 L, every row divided by its diagonal entry, and D = diag(L) (..., n).
    L is overwritten by the unit factor, whose diagonal is exactly 1, as
    L_ii / L_ii rounds to 1."""
    diag = np.diagonal(L, axis1=-2, axis2=-1).copy()
    L /= diag[..., :, None]
    return L, diag


def _scaled_weights(unit: np.ndarray, diag: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """D C^-1 Y for C = L L^T, from the unit factor and D (see `_unit_factor`):
    with L = D Lhat, D C^-1 Y = Lhat^-T Lhat^-1 D^-1 Y, one division by D."""
    return _back_subst(unit, _forward_subst(unit, Y / diag[..., :, None]))


def _forward_subst(L: np.ndarray, R: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Solve L X = R for a stack of unit lower-triangular factors L (..., n, n),
    such as `_unit_factor` gives; the diagonal is taken as 1 and not read.

    R is (..., n, k) and broadcasts against the stack. Row i of X is
    R_i - L[i, :i] X[:i], its known part from rows 0..i-1 by one stacked
    matmul, so the loop runs n times whatever the stack size, and no row
    divides. X is written into `out` when given, in any layout; `out=R`
    solves in place, since row i reads R[..., i, :] before it writes that row.
    """
    X = out
    if X is None:
        X = np.empty(np.broadcast_shapes(L.shape[:-2], R.shape[:-2]) + R.shape[-2:])
    X[..., 0, :] = R[..., 0, :]
    for i in range(1, L.shape[-1]):
        known = (L[..., i:i + 1, :i] @ X[..., :i, :])[..., 0, :]
        np.subtract(R[..., i, :], known, out=X[..., i, :])
    return X


def _back_subst(L: np.ndarray, R: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Solve L^T X = R for unit lower-triangular L: forward substitution on the
    order-reversed transpose; `out` as in `_forward_subst`, so `out=R` solves
    in place."""
    rev = None if out is None else out[..., ::-1, :]
    return _forward_subst(L.swapaxes(-1, -2)[..., ::-1, ::-1], R[..., ::-1, :], out=rev)[..., ::-1, :]


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

    One `_factorize` call gives the Cholesky factors L (J, n, n) and the
    absolute diagonal shift of every member, `jitter_shifts` (J,). With
    D = diag(L), the ensemble keeps, in place of L and the weights C^-1 Y:
    the unit factor `_unit_L` = D^-1 L (J, n, n), whose diagonal is exactly 1;
    the scaled weights `_scaled_W` = D C^-1 Y (J, n, q); and the exponent
    offsets `_log_scale` = log sigma_c^2 - log L_ii (J, n). `_se_cov` with
    that offset gives the scaled cross-covariances D^-1 c, so the predictive
    step runs without a division and without a sigma_c^2 pass (see
    `predict_batch`). A row that no jitter level factorizes raises
    IllConditionedKernelError with the `failed` mask. `sweeps`, `stages` and
    `reweight_ess` say how `mcmc.sample_hyperposterior` drew the rows; they
    are 0, 0 and nan for given rows."""

    def __init__(self, training: TrainingSet, hyperparams: np.ndarray):
        hyperparams = np.atleast_2d(np.asarray(hyperparams, dtype=float))
        if len(hyperparams) < 1 or hyperparams.shape[1] != training.input_dim + 1:
            raise ValueError(f"need (J >= 1, {training.input_dim + 1}) hyperparameter rows, "
                             f"got {hyperparams.shape}")
        if not np.all((hyperparams > 0.0) & np.isfinite(hyperparams)):
            raise ValueError("hyperparameters must be positive and finite")
        L, shift = _factorize(training.inputs, hyperparams)
        if np.any(np.isnan(shift)):
            raise _factorization_error(training.inputs, hyperparams, np.isnan(shift))
        self.training = training
        self.hyperparams = hyperparams
        self._sigma2 = hyperparams[:, 0] ** 2
        self._inv_l2 = 1.0 / hyperparams[:, 1:] ** 2
        self._unit_L, diag = _unit_factor(L)
        self._log_scale = np.log(self._sigma2)[:, None] - np.log(diag)
        # Contiguous, unlike the reversed view _back_subst returns: a negative
        # stride keeps matmul off BLAS for W^T c and the pullback's W coeff_mean.
        self._scaled_W = np.ascontiguousarray(_scaled_weights(self._unit_L, diag, training.scaled_outputs))
        self.jitter_shifts = shift
        self.sweeps = self.stages = 0
        self.reweight_ess = float("nan")
        escalated = int(np.count_nonzero(shift > JITTER_LEVELS[0] * self._sigma2))
        if escalated:
            log.debug("%d of %d members escalated past the base jitter for n_train=%d",
                      escalated, len(shift), training.n_train)

    def _cross(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The scaled cross-covariances D^-1 c (J, n, B) and normalized means
        c^T C^-1 Y = (D^-1 c)^T (D C^-1 Y) (J, q, B) at each row of thetas, rows last.

        D^-1 c is a view of a rows-major (n, J, B) buffer (see `_se_cov`), so
        the substitution reads and writes one contiguous (J, B) plane per
        design point. The means are a view of an outputs-major (q, J, B)
        buffer, so each output's plane means[:, k, :] is one contiguous (J, B)
        array."""
        c = _se_cov(self.training.inputs, thetas, self._log_scale, self._inv_l2)
        J, q, B = self._scaled_W.shape[0], self._scaled_W.shape[2], c.shape[2]
        means = np.empty((q, J, B)).transpose(1, 0, 2)
        np.matmul(self._scaled_W.transpose(0, 2, 1), c, out=means)
        return c, means

    def predict_batch(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalized predictive means (J, q, B) and variances (J, B) at each row.

        mean = c^T C^-1 y from the scaled weights, variance =
        sigma_c^2 - |L^-1 c|^2, where L^-1 c = Lhat^-1 D^-1 c comes from the
        unit factor with no division. The means are laid out outputs-major
        (see `_cross`): a (J, q, B) view whose per-output (J, B) planes are
        contiguous. L^-1 c is solved in place over D^-1 c, which nothing reads
        afterwards, so a block holds two large arrays, not three.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        c, means = self._cross(thetas)
        return means, self._variances(_forward_subst(self._unit_L, c, out=c))

    def _variances(self, half: np.ndarray) -> np.ndarray:
        """sigma_c^2 - |L^-1 c|^2 per member and row, clamped at 0; `half` is
        L^-1 c (J, n, B) and is left as it is."""
        variances = self._sigma2[:, None] - np.einsum("jnb,jnb->jb", half, half)
        return np.maximum(variances, 0.0, out=variances)

    def predict_with_pullback(self, thetas: np.ndarray):
        """Normalized means (J, q, B), variances (J, B) and their pullback at each row.

        `pullback(coeff_mean (J, q, B), coeff_var (J, B))` returns the gradients
        (J, p, B) of sum_q coeff_mean * mean + coeff_var * variance per member
        and row. The chain rule runs through the cross-covariance c alone, so
        the coefficients fold into one n-vector per member and row,
        w = c * (W coeff_mean - 2 coeff_var C^-1 c), which in the ensemble's
        scaled terms (see `GpEnsemble`) is
        w = D^-1 c * (D W coeff_mean - 2 coeff_var D C^-1 c), where
        D C^-1 c = Lhat^-T L^-1 c. Since dc_n/dtheta = -2 inv_l2 * (theta - x_n) c_n,
        the gradient is -2 inv_l2 * (theta sum_n w - X^T w): two small
        products, no (J, B, p, q) tensor of mean derivatives. The pullback
        needs D^-1 c, so L^-1 c goes into a buffer of its rows-major layout:
        the substitution then runs the same products as `predict_batch`'s
        in-place one, and the means and variances are bit-identical to
        `predict_batch`'s. D C^-1 c is solved over L^-1 c in place, and the
        pullback scales it in place, so it may be called once.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        c, means = self._cross(thetas)
        solved = _forward_subst(self._unit_L, c, out=np.empty_like(c))
        var = self._variances(solved)
        _back_subst(self._unit_L, solved, out=solved)

        def pullback(coeff_mean: np.ndarray, coeff_var: np.ndarray) -> np.ndarray:
            # W coeff_mean + x * (-2v) is W coeff_mean - (2v) x to the bit.
            w = self._scaled_W @ coeff_mean                                 # (J, n, B)
            w += np.multiply(solved, -2.0 * coeff_var[:, None, :], out=solved)
            w *= c
            grad = thetas.T * w.sum(axis=1)[:, None, :]                     # (J, p, B)
            grad -= self.training.inputs.T @ w
            grad *= -2.0 * self._inv_l2[:, :, None]
            return grad

        return means, var, pullback
