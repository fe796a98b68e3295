"""Expected improvement in fit: objective, smoothed variant, gradients, and
the multistart bound-constrained maximizer that picks the next training input.

The maximizer runs L-BFGS-B from every start in lockstep: each start keeps
its own iterates, and every start that waits for a value and gradient is
scored in one batched call of the smoothed objective.

The improvement at a point is the ensemble average of the positive part of
(best misfit so far) - (that member's surrogate misfit). The hinge is
replaced by a twice continuously differentiable ramp during optimization so
gradient-based ascent applies; the substitution costs at most ETA/2 in
objective value.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .designs import DesignBox, sobol
from .gp import GpEnsemble
from .likelihood import MeasurementModel, _misfit_batch, member_misfits, misfit_of_outputs

log = logging.getLogger(__name__)

ETA = 1e-4  # width of the smoothed hinge in the acquisition's ascent

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
        # The ramp's slope rounds to 1 + 1 ulp just below eta; keep it in [0, 1].
        ramp = np.minimum(3.0 * xm**2 / eta**2 - 2.0 * xm**3 / eta**3, 1.0)
        deriv = np.where(mid, ramp, deriv)
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

    def __post_init__(self):
        if self.g_min < 0.0:
            raise ValueError("g_min cannot be negative")

    @classmethod
    def from_ensemble(cls, ens: GpEnsemble, meas: MeasurementModel, bounds: DesignBox) -> "AcquisitionState":
        """Incumbent misfit computed from the stored training outputs."""
        g_min = min(misfit_of_outputs(row, meas) for row in ens.training.raw_outputs)
        return cls(ens, meas, g_min, bounds)


def expected_improvement(thetas: np.ndarray, state: AcquisitionState) -> np.ndarray:
    """Exact expected improvement, the ensemble mean of the hinge [g_min - g_j]+,
    at every row of thetas, SCREEN_BLOCK rows at a time."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    values = np.empty(thetas.shape[0])
    for lo in range(0, thetas.shape[0], SCREEN_BLOCK):
        g = _misfit_batch(thetas[lo:lo + SCREEN_BLOCK], state.ensemble, state.meas)
        values[lo:lo + SCREEN_BLOCK] = np.mean(np.maximum(state.g_min - g, 0.0), axis=0)
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
    return candidates, expected_improvement(candidates, state)


def _misfit_grads_batch(thetas: np.ndarray, ens: GpEnsemble, meas: MeasurementModel):
    """Per-member surrogate misfits (J, B) and their gradients (J, p, B) at each row.

    `member_misfits` leaves dg/dm in place over the predicted means and returns
    dg/dV; the ensemble's pullback carries both to theta.
    """
    means, var, pullback = ens.predict_with_pullback(thetas)
    g, _, coeff_var = member_misfits(means, var, ens.training, meas, grads=True)
    return g, pullback(means, coeff_var)


def expected_improvement_smoothed(thetas: np.ndarray, state: AcquisitionState
                                  ) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed objective values (B,) and analytic gradients (B, p), SCREEN_BLOCK rows at a time."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    values = np.empty(thetas.shape[0])
    grads = np.empty(thetas.shape)
    for lo in range(0, thetas.shape[0], SCREEN_BLOCK):
        g, dg = _misfit_grads_batch(thetas[lo:lo + SCREEN_BLOCK], state.ensemble, state.meas)
        value, slope = smoothed_pos(state.g_min - g, ETA)
        values[lo:lo + SCREEN_BLOCK] = np.mean(value, axis=0)
        dg *= slope[:, None, :]
        grads[lo:lo + SCREEN_BLOCK] = -dg.sum(axis=0).T / g.shape[0]
    return values, grads


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


# scipy's L-BFGS-B reverse-communication task codes (task[0] of setulb).
_FG, _NEW_X, _CONVERGENCE, _STOP = 3, 1, 4, 5
_MAXITER_REACHED, _MAXFUN_REACHED = 504, 502


class _LbfgsbStart:
    """One start's L-BFGS-B state: setulb's workspace plus the last evaluation.

    The settings and the loop are those of scipy's `_minimize_lbfgsb` with
    ftol=STEP_TOL and gtol=GRAD_TOL, so a start takes the same iterates as
    `minimize(method="L-BFGS-B")` given the same objective values. `setulb`
    is scipy's `_lbfgsb.setulb`, passed in by the driver, which loads that
    one extension module when an ascent starts (see `_load_lbfgsb`).
    """

    MAXCOR, MAXLS, MAXFUN, MAXITER = 10, 20, 15000, 500

    def __init__(self, x0: np.ndarray, f0: float, g0: np.ndarray, box: DesignBox, setulb):
        n, m = x0.shape[0], self.MAXCOR
        self.setulb = setulb
        self.lower = np.ascontiguousarray(box.lower, dtype=np.float64)
        self.upper = np.ascontiguousarray(box.upper, dtype=np.float64)
        self.nbd = np.full(n, 2, dtype=np.int32)  # both bounds finite
        self.x = np.array(x0, dtype=np.float64)
        self.f = np.array(0.0)
        self.g = np.zeros(n)
        self.wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        self.iwa = np.zeros(3 * n, dtype=np.int32)
        self.task = np.zeros(2, dtype=np.int32)
        self.ln_task = np.zeros(2, dtype=np.int32)
        self.lsave = np.zeros(4, dtype=np.int32)
        self.isave = np.zeros(44, dtype=np.int32)
        self.dsave = np.zeros(29)
        self.n_iterations = 0
        # scipy evaluates at x0 before the first setulb call and reuses it there
        self.eval_x, self.eval_f, self.eval_g, self.nfev = self.x.copy(), f0, g0, 1

    def record(self, f: float, g: np.ndarray) -> None:
        """Take f and g at the current x and keep them, as scipy's ScalarFunction does."""
        self.eval_x, self.eval_f, self.eval_g = self.x.copy(), f, g
        self.f, self.g = f, g.copy()
        self.nfev += 1

    def advance(self) -> bool:
        """Run setulb until it wants f and g at a new x (True) or stops (False)."""
        factr = STEP_TOL / np.finfo(float).eps
        while True:
            self.setulb(self.MAXCOR, self.x, self.lower, self.upper, self.nbd, self.f, self.g,
                        factr, GRAD_TOL, self.wa, self.iwa, self.task, self.lsave,
                        self.isave, self.dsave, self.MAXLS, self.ln_task)
            if self.task[0] == _FG:
                if not np.array_equal(self.x, self.eval_x):
                    return True
                self.f, self.g = self.eval_f, self.eval_g.copy()
            elif self.task[0] == _NEW_X:
                self.n_iterations += 1
                if self.n_iterations >= self.MAXITER:
                    self.task[:] = _STOP, _MAXITER_REACHED
                elif self.nfev > self.MAXFUN:
                    self.task[:] = _STOP, _MAXFUN_REACHED
            else:
                return False


def _load_lbfgsb():
    """scipy's compiled L-BFGS-B module, `scipy.optimize._lbfgsb`, loaded alone.

    Importing it through the package would run `scipy.optimize.__init__`,
    which loads some 300 modules (linalg, sparse, special, ...) that setulb
    never calls. The extension file is found in scipy's directory without
    importing scipy, and the module is registered under its own name, so a
    later `import scipy.optimize` reuses this same module object.

    That later import leaves the package attribute `scipy.optimize._lbfgsb`
    unbound: the import system binds a submodule to its package only when it
    loads the submodule itself. `from scipy.optimize import _lbfgsb`, the
    form scipy's own `minimize(method="L-BFGS-B")` uses, falls back to
    `sys.modules` and returns this module.
    """
    name = "scipy.optimize._lbfgsb"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed", name=name)
    directory = f"{scipy.submodule_search_locations[0]}/optimize"
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no _lbfgsb extension module in {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def multistart_maximize_batch(values_and_grads, starts: np.ndarray, box: DesignBox) -> AcquisitionResult:
    """Bound-constrained quasi-Newton ascent from every start, best result wins.

    `values_and_grads(X) -> (values (B,), gradients (B, p))` is maximized
    inside the box by L-BFGS-B from every start in lockstep. Each start keeps
    its own iterates; only the evaluations are shared: every round scores,
    in one call, all starts that wait for a value at a new point. A start's
    value is the last one evaluated, as `minimize` reports it. Value ties go
    to the earliest start. The best point wins whether or not its run
    reported convergence: the line search can stop abnormally on a sharp
    maximum whose gradient is already near zero. `degraded=True` flags that
    no start converged.
    """
    setulb = _load_lbfgsb().setulb
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if starts.shape[0] < 1:
        raise ValueError("need at least one start")
    if not np.all(box.contains(starts)):
        raise ValueError("all starts must lie inside the search box")

    def negated(X):
        values, grads = values_and_grads(X)
        return -np.asarray(values, dtype=float), -np.asarray(grads, dtype=float)

    runs = [_LbfgsbStart(x0, float(f), g, box, setulb)
            for x0, f, g in zip(starts, *negated(starts.copy()))]
    pending = [run for run in runs if run.advance()]
    while pending:
        for run, f, g in zip(pending, *negated(np.array([run.x for run in pending]))):
            run.record(float(f), g)
        pending = [run for run in pending if run.advance()]
    optima = [LocalOptimum(box.clip(run.x), -float(run.f), bool(run.task[0] == _CONVERGENCE))
              for run in runs]
    best = max(optima, key=lambda o: o.value)
    degraded = not any(o.converged for o in optima)
    if degraded:
        log.warning("no start converged; returning best evaluated point")
    return AcquisitionResult(best.theta, best.value, optima, degraded)


def maximize_acquisition(state: AcquisitionState, starts: Sequence[np.ndarray]) -> AcquisitionResult:
    """Multistart ascent of the smoothed expected improvement inside the box.

    The objective is looked up in this module at each call, so a wrapper
    bound to `gpinv.acquisition.expected_improvement_smoothed` sees every
    evaluation."""
    return multistart_maximize_batch(
        lambda thetas: expected_improvement_smoothed(thetas, state), starts, state.bounds,
    )
