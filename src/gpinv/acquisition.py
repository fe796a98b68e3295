"""Expected improvement in fit: objective, smoothed variant, gradients, and
the multistart bound-constrained maximizer that picks the next training input.

The improvement at a point is the ensemble average of the positive part of
(best misfit so far) - (that member's surrogate misfit). The hinge is
replaced by a twice continuously differentiable ramp during optimization so
gradient-based ascent applies; the substitution costs at most eta/2 in
objective value.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .designs import DesignBox, sobol
from .gp import GpEnsemble, _back_subst, _forward_subst, _se_cov
from .likelihood import MeasurementModel, _misfit_batch, member_misfits, misfit_of_outputs

log = logging.getLogger(__name__)

DEFAULT_ETA = 1e-4

# Ascent stops when the projected gradient falls below GRAD_TOL or successive
# objective values differ by less than STEP_TOL.
GRAD_TOL = 1e-8
STEP_TOL = 1e-12

# The stop screen scores exact EI at SCREEN_POINTS Sobol candidates plus
# SCREEN_NEIGHBOURS points within SCREEN_RADIUS (a fraction of the box width,
# max norm) of every design point, SCREEN_BLOCK rows at a time so memory stays
# flat. Its SCREEN_TOP best candidates seed the confirming ascent.
SCREEN_POINTS = 1024
SCREEN_NEIGHBOURS = 16
SCREEN_RADIUS = 0.05
SCREEN_BLOCK = 16
SCREEN_TOP = 10


def smoothed_pos(x, eta: float):
    """Smoothed positive part and its derivative; vectorized over x.

    Zero left of the origin, the ramp x^3/eta^2 - x^4/(2 eta^3) on (0, eta),
    and x - eta/2 beyond. Satisfies [x]+_eta <= [x]+ <= [x]+_eta + eta/2.
    """
    if eta <= 0.0:
        raise ValueError("smoothing width must be positive")
    x = np.asarray(x, dtype=float)
    mid = (x > 0.0) & (x < eta)
    value = np.where(x >= eta, x - 0.5 * eta, 0.0)
    deriv = np.where(x >= eta, 1.0, 0.0)
    if np.any(mid):
        xm = np.where(mid, x, 0.0)
        value = np.where(mid, xm**3 / eta**2 - xm**4 / (2.0 * eta**3), value)
        deriv = np.where(mid, 3.0 * xm**2 / eta**2 - 2.0 * xm**3 / eta**3, deriv)
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


@dataclass(frozen=True)
class AcquisitionState:
    """Everything the acquisition needs: ensemble, data, incumbent, search box."""

    ensemble: GpEnsemble
    meas: MeasurementModel
    g_min: float
    bounds: DesignBox
    eta: float = DEFAULT_ETA

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.g_min < 0.0:
            raise ValueError("g_min cannot be negative")

    @classmethod
    def from_ensemble(cls, ens: GpEnsemble, meas: MeasurementModel, bounds: DesignBox,
                      eta: float = DEFAULT_ETA) -> "AcquisitionState":
        """Incumbent misfit computed from the stored training outputs."""
        g_min = min(misfit_of_outputs(row, meas) for row in ens.training.raw_outputs)
        return cls(ens, meas, g_min, bounds, eta)


def _pred_grad(ens: GpEnsemble, theta: np.ndarray):
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


def _misfits_and_grads(ens: GpEnsemble, meas: MeasurementModel, theta: np.ndarray):
    """Per-member surrogate misfits (J,) and their gradients (J, p) at theta."""
    m_norm, V_norm, dm, dV = _pred_grad(ens, theta)
    g, resid, den = member_misfits(m_norm, V_norm, ens.training, meas)
    coeff_mean = -2.0 * resid / den                          # (J, q)
    coeff_var = -np.sum(resid**2 / den**2, axis=1)           # (J,)
    grad = (coeff_mean[:, None, :] @ dm)[:, 0, :] + coeff_var[:, None] * dV
    return g, grad


def expected_improvement(theta: np.ndarray, state: AcquisitionState) -> float:
    """Ensemble mean of the exact hinge [g_min - g_j]+ at theta."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return float(expected_improvement_batch(theta[None, :], state)[0])


def expected_improvement_batch(thetas: np.ndarray, state: AcquisitionState) -> np.ndarray:
    """Exact expected improvement at every row of thetas, SCREEN_BLOCK rows at a time."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    values = np.empty(thetas.shape[0])
    for lo in range(0, thetas.shape[0], SCREEN_BLOCK):
        g = _misfit_batch(thetas[lo:lo + SCREEN_BLOCK], state.ensemble, state.meas)
        values[lo:lo + SCREEN_BLOCK] = np.mean(np.maximum(state.g_min - g, 0.0), axis=1)
    return values


def screen_acquisition(state: AcquisitionState) -> tuple[np.ndarray, np.ndarray]:
    """Stop-screen candidates inside the box and their exact expected improvement.

    Where EI is positive on only a sliver of the box, every gradient start on
    the zero plateau stays put; the screen looks there by brute force: Sobol
    points over the box plus a small neighbourhood of each design point, since
    the incumbent's basin lies next to the design.
    """
    box = state.bounds
    cube = DesignBox(np.full(box.dim, -1.0), np.full(box.dim, 1.0))
    # skip=2 passes the cube's corner and its centre, the design point itself
    offsets = sobol(SCREEN_NEIGHBOURS, cube, skip=2) * SCREEN_RADIUS * (box.upper - box.lower)
    near = state.ensemble.training.inputs[:, None, :] + offsets[None, :, :]
    candidates = np.vstack([sobol(SCREEN_POINTS, box, skip=1),
                            box.clip(near.reshape(-1, box.dim))])
    return candidates, expected_improvement_batch(candidates, state)


def expected_improvement_smoothed(theta: np.ndarray, state: AcquisitionState) -> tuple[float, np.ndarray]:
    """Smoothed objective value and its analytic gradient at theta."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    g, dg = _misfits_and_grads(state.ensemble, state.meas, theta)
    value, slope = smoothed_pos(state.g_min - g, state.eta)
    grad = -(np.atleast_1d(slope) @ dg) / g.shape[0]
    return float(np.mean(value)), grad


@dataclass
class LocalOptimum:
    theta: np.ndarray
    value: float
    converged: bool


@dataclass
class AcquisitionResult:
    theta: np.ndarray
    value: float
    local_optima: list[LocalOptimum] = field(default_factory=list)
    degraded: bool = False


def multistart_maximize(value_and_grad, starts: np.ndarray, box: DesignBox) -> AcquisitionResult:
    """Bound-constrained quasi-Newton ascent from every start, best result wins.

    `value_and_grad(theta) -> (value, gradient)` is maximized inside the box
    by projected-gradient ascent with BFGS curvature, one start after
    another. Value ties go to the earliest start. The best point wins whether
    or not its run reported convergence: the line search can stop abnormally
    on a sharp maximum whose gradient is already near zero. `degraded=True`
    flags that no start converged.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if starts.shape[0] < 1:
        raise ValueError("need at least one start")
    if not np.all(box.contains(starts)):
        raise ValueError("all starts must lie inside the search box")
    bounds = list(zip(box.lower, box.upper))

    def negative(theta):
        value, grad = value_and_grad(theta)
        return -value, -np.asarray(grad, dtype=float)

    def ascend(x0) -> LocalOptimum:
        res = minimize(
            negative, x0, jac=True, method="L-BFGS-B", bounds=bounds,
            options={"ftol": STEP_TOL, "gtol": GRAD_TOL, "maxiter": 500},
        )
        return LocalOptimum(box.clip(res.x), float(-res.fun), bool(res.success))

    optima = [ascend(x0) for x0 in starts]
    best = max(optima, key=lambda o: o.value)
    degraded = not any(o.converged for o in optima)
    if degraded:
        log.warning("no start converged; returning best evaluated point")
    return AcquisitionResult(best.theta, best.value, optima, degraded)


def maximize_acquisition(state: AcquisitionState, starts: Sequence[np.ndarray]) -> AcquisitionResult:
    """Multistart ascent of the smoothed expected improvement inside the box."""
    return multistart_maximize(
        lambda theta: expected_improvement_smoothed(theta, state), starts, state.bounds,
    )
