"""Benchmark forward models behind one evaluation interface.

Three problems: a scalar rational function on an interval, transient heat
diffusion with a compactly supported Gaussian source on the unit square, and
steady Darcy flow with a radial-basis permeability field. The PDE models are
discretized with cell-centered finite differences (backward Euler in time for
the heat problem, harmonic-mean face conductivities for Darcy) and carry a
finer companion discretization for generating synthetic data, so inversion
never runs on the same grid that produced the measurements.

The heat step has constant coefficients and zero-flux walls, so the cosine
transform diagonalizes it and the heat model is solved exactly mode by mode;
the Darcy operator depends on theta and is factorized by sparse LU on every
solve. Both PDE models share one grid-model base: each supplies only its
named solution fields, and the base reads them out at the sensors.

Every concrete model counts its `evaluate` calls in `n_evals`; data
generation through `fine_evaluate` is not counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, idctn
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .errors import InvalidParameterError, SolverError
from .likelihood import MeasurementModel


@dataclass(frozen=True)
class GridSolverConfig:
    """Uniform-grid discretization parameters."""

    nx: int
    ny: int
    dt: float = 0.01

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError("grid must have at least 8 cells per side")
        if self.dt <= 0.0:
            raise ValueError("time step must be positive")


def sensor_grid(m: int) -> np.ndarray:
    """(m*m, 2) sensor coordinates on the unit square, row-major (x fastest).

    Each side carries m sensors at i/(m-1), i=0..m-1, corners included.
    """
    line = np.linspace(0.0, 1.0, m)
    xs, ys = np.meshgrid(line, line)  # row-major: y outer, x fastest
    return np.column_stack([xs.ravel(), ys.ravel()])


class ForwardModel:
    """Deterministic parameter-to-output map with an evaluation counter."""

    input_dim: int
    output_dim: int

    def __init__(self):
        self.n_evals = 0

    def _checked(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.shape[0] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} parameters, got {theta.shape[0]}")
        if not np.all(np.isfinite(theta)):
            raise InvalidParameterError(f"parameters must be finite, got {theta}")
        return theta

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        theta = self._checked(theta)
        self.n_evals += 1
        return self._evaluate(theta)

    def fine_evaluate(self, theta: np.ndarray) -> np.ndarray:
        """Refined-discretization evaluation used only to synthesize data."""
        return self._fine_evaluate(self._checked(theta))

    def _evaluate(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _fine_evaluate(self, theta: np.ndarray) -> np.ndarray:
        return self._evaluate(theta)


def rational_1d(theta: float) -> float:
    """(theta^2 - 5 theta + 6) / (theta^2 + 1); roots at 2 and 3."""
    theta = float(theta)
    return (theta**2 - 5.0 * theta + 6.0) / (theta**2 + 1.0)


class Rational1D(ForwardModel):
    """Scalar rational benchmark on [-6, 6]."""

    input_dim = 1
    output_dim = 1

    def _evaluate(self, theta):
        return np.array([rational_1d(theta[0])])


class _CellGrid:
    """Cell-centered uniform grid on the unit square."""

    def __init__(self, nx: int, ny: int):
        self.nx, self.ny = nx, ny
        self.dx, self.dy = 1.0 / nx, 1.0 / ny
        self.xc = (np.arange(nx) + 0.5) * self.dx
        self.yc = (np.arange(ny) + 0.5) * self.dy

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        X, Y = np.meshgrid(self.xc, self.yc)  # (ny, nx)
        return X, Y

    def interpolate(self, field: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Bilinear interpolation of a (ny, nx) cell-centered field, with
        constant extrapolation inside the half-cell boundary margin."""
        pts = np.atleast_2d(points)
        gx = np.clip(pts[:, 0] / self.dx - 0.5, 0.0, self.nx - 1.0)
        gy = np.clip(pts[:, 1] / self.dy - 0.5, 0.0, self.ny - 1.0)
        i0 = np.minimum(gx.astype(int), self.nx - 2)
        j0 = np.minimum(gy.astype(int), self.ny - 2)
        fx = gx - i0
        fy = gy - j0
        f00 = field[j0, i0]
        f01 = field[j0, i0 + 1]
        f10 = field[j0 + 1, i0]
        f11 = field[j0 + 1, i0 + 1]
        return (f00 * (1 - fx) * (1 - fy) + f01 * fx * (1 - fy)
                + f10 * (1 - fx) * fy + f11 * fx * fy)


def _face_pairs(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flattened index pairs of cells sharing an x-face and a y-face."""
    idx = np.arange(nx * ny).reshape(ny, nx)
    ax, bx = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    ay, by = idx[:-1, :].ravel(), idx[1:, :].ravel()
    return ax, bx, ay, by


def _flux_operator(nx: int, ny: int, coef_x: np.ndarray, coef_y: np.ndarray):
    """Assemble sum-over-faces coef*(u_a - u_b) as a sparse matrix.

    Rows sum to zero by construction, which is the discrete footprint of the
    zero-flux boundary. coef_x/coef_y hold one value per interior face.
    """
    ax, bx, ay, by = _face_pairs(nx, ny)
    a = np.concatenate([ax, ay])
    b = np.concatenate([bx, by])
    c = np.concatenate([coef_x, coef_y])
    rows = np.concatenate([a, b, a, b])
    cols = np.concatenate([a, b, b, a])
    vals = np.concatenate([c, c, -c, -c])
    n = nx * ny
    return coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


def _neumann_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of the 1-D zero-flux second difference -u'' on n cells of width h.

    The orthonormal DCT-II vectors cos(pi k (j + 1/2) / n) are its
    eigenvectors, with eigenvalues (2 sin(pi k / 2n) / h)^2, k = 0..n-1.
    """
    return (2.0 * np.sin(0.5 * np.pi * np.arange(n) / n) / h) ** 2


class _GridModel(ForwardModel):
    """A PDE model on a cell-centered grid of the unit square, read out at a
    square sensor grid: the inversion grid `cfg` and the data grid `fine_cfg`.

    A subclass supplies only `_fields(theta, cfg)`, its named (ny, nx) solution
    fields in output order; the outputs are every field's sensor values in turn.
    """

    def __init__(self, cfg: GridSolverConfig, fine_cfg: GridSolverConfig,
                 sensors_per_side: int, n_fields: int = 1):
        super().__init__()
        self.cfg = cfg
        self.fine_cfg = fine_cfg
        self.sensors = sensor_grid(sensors_per_side)
        self.output_dim = n_fields * self.sensors.shape[0]

    def _fields(self, theta: np.ndarray, cfg: GridSolverConfig) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def _readout(self, theta: np.ndarray, cfg: GridSolverConfig) -> np.ndarray:
        grid = _CellGrid(cfg.nx, cfg.ny)
        return np.concatenate([
            grid.interpolate(field, self.sensors) for field in self._fields(theta, cfg).values()
        ])

    def _evaluate(self, theta):
        return self._readout(theta, self.cfg)

    def _fine_evaluate(self, theta):
        return self._readout(theta, self.fine_cfg)

    def fields(self, theta: np.ndarray, fine: bool = False) -> dict[str, np.ndarray]:
        """The named (ny, nx) solution fields on the inversion grid, or on the data grid."""
        return self._fields(self._checked(theta), self.fine_cfg if fine else self.cfg)


class HeatSource2D(_GridModel):
    """Transient diffusion driven by a Gaussian source that switches off.

    The source of total strength `amplitude` and width `source_width` sits at
    the unknown location theta in [0,1]^2 and is active for t <= source_time.
    Outputs are the field values at a square sensor grid at each measurement
    time, time-major (all sensors at the first time, then at the second); the
    fields are named field_t<time>.

    Each backward-Euler step solves (I - dt Lap) u_k = u_{k-1} + dt s. The
    five-point Laplacian with zero-flux walls is diagonal in the 2-D cosine
    basis, so the solve transforms the source once, scales every mode by
    1 / (1 + dt (lambda_x + lambda_y)) per step, and transforms back only at
    the measurement times.
    """

    input_dim = 2

    def __init__(
        self,
        cfg: GridSolverConfig = GridSolverConfig(32, 32, dt=0.01),
        fine_cfg: GridSolverConfig = GridSolverConfig(128, 128, dt=0.0025),
        sensors_per_side: int = 3,
        measure_times: tuple[float, ...] = (0.1, 0.2),
        amplitude: float = 2.0,
        source_width: float = 0.05,
        source_time: float = 0.1,
    ):
        if len({f"{tm:g}" for tm in measure_times}) != len(measure_times):
            raise ValueError(f"measurement times {measure_times} must have distinct names")
        super().__init__(cfg, fine_cfg, sensors_per_side, n_fields=len(measure_times))
        self.measure_times = tuple(measure_times)
        self.amplitude = amplitude
        self.source_width = source_width
        self.source_time = source_time
        self._steppers: dict[tuple, tuple] = {}

    def _stepper(self, cfg: GridSolverConfig) -> tuple[_CellGrid, np.ndarray]:
        """The grid and the per-step modal factor 1 / (1 + dt (lambda_x + lambda_y)), (ny, nx)."""
        key = (cfg.nx, cfg.ny, cfg.dt)
        if key not in self._steppers:
            grid = _CellGrid(cfg.nx, cfg.ny)
            lam = (_neumann_eigenvalues(grid.ny, grid.dy)[:, None]
                   + _neumann_eigenvalues(grid.nx, grid.dx)[None, :])
            self._steppers[key] = (grid, 1.0 / (1.0 + cfg.dt * lam))
        return self._steppers[key]

    def _source_field(self, grid: _CellGrid, theta: np.ndarray) -> np.ndarray:
        X, Y = grid.centers()
        r2 = (X - theta[0]) ** 2 + (Y - theta[1]) ** 2
        return self.amplitude / (2.0 * np.pi * self.source_width**2) * np.exp(
            -r2 / (2.0 * self.source_width**2)
        )

    def _fields(self, theta: np.ndarray, cfg: GridSolverConfig) -> dict[str, np.ndarray]:
        grid, damping = self._stepper(cfg)
        meas_steps = {}
        for tm in self.measure_times:
            step = int(round(tm / cfg.dt))
            if step < 1 or abs(step * cfg.dt - tm) > 1e-9:
                raise ValueError(f"time step {cfg.dt} does not hit measurement time {tm}")
            meas_steps[step] = tm
        source_steps = int(round(self.source_time / cfg.dt))
        kick = dctn(cfg.dt * self._source_field(grid, theta), type=2, norm="ortho")
        modes = np.zeros_like(kick)
        fields = {}
        for step in range(1, max(meas_steps) + 1):
            if step <= source_steps:
                modes += kick
            modes *= damping
            if step in meas_steps:
                u = idctn(modes, type=2, norm="ortho")
                if not np.all(np.isfinite(u)):
                    raise SolverError(f"heat solve produced non-finite values at step {step}")
                fields[meas_steps[step]] = u
        return {f"field_t{tm:g}": fields[tm] for tm in self.measure_times}


RBF_CENTERS = np.array([
    (0.5, 0.5), (0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75),
    (0.0, 0.5), (0.5, 0.0), (1.0, 0.5), (0.5, 1.0),
])
RBF_WIDTH = 0.15

SOURCE_CENTERS = np.array([(0.3, 0.3), (0.7, 0.3), (0.7, 0.7), (0.3, 0.7)])
SOURCE_WEIGHTS = np.array([2.0, -3.0, 3.0, -2.0])
SOURCE_WIDTH = 0.05

PERMEABILITY_THETA_TRUE = np.array([0.3, 0.6, 0.8, 1.5, 0.8, 1.0, 1.0, 0.3, 0.3])
PERMEABILITY_BOUNDS = (
    np.array([0.0, 0.0, 0.0, 0.8, 0.0, 0.5, 0.6, 0.0, 0.0]),
    np.array([1.0, 1.0, 1.0, 1.8, 1.0, 1.5, 1.6, 1.0, 1.0]),
)


def permeability_field(points: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Weighted radial-basis sum kappa(x; theta) at the given (m, 2) points."""
    points = np.atleast_2d(points)
    theta = np.asarray(theta, dtype=float).reshape(-1)
    r2 = np.sum((points[:, None, :] - RBF_CENTERS[None, :, :]) ** 2, axis=2)
    basis = np.exp(-r2 / (2.0 * RBF_WIDTH**2))
    return basis @ theta


class DarcyPermeability2D(_GridModel):
    """Steady flow: -div(kappa grad u) = q, zero flux across the boundary,
    zero-mean pressure. The nine parameters weigh the radial basis functions
    of the permeability field, and the one output field is named field.

    Face conductivities use harmonic means of the adjacent cell values. The
    flux operator A is symmetric and annihilates constants, so A u = q is
    solvable only for zero-mean q, and then only up to a constant: the solve
    removes the mean of the discretized source, pins the first cell at 0 and
    shifts the result to zero mean.
    """

    input_dim = 9

    def __init__(
        self,
        cfg: GridSolverConfig = GridSolverConfig(32, 32),
        fine_cfg: GridSolverConfig = GridSolverConfig(128, 128),
        sensors_per_side: int = 5,
    ):
        super().__init__(cfg, fine_cfg, sensors_per_side)

    def source_field(self, grid: _CellGrid) -> np.ndarray:
        X, Y = grid.centers()
        q = np.zeros_like(X)
        for (cx, cy), w in zip(SOURCE_CENTERS, SOURCE_WEIGHTS):
            r2 = (X - cx) ** 2 + (Y - cy) ** 2
            q += w / (2.0 * np.pi * SOURCE_WIDTH**2) * np.exp(-r2 / (2.0 * SOURCE_WIDTH**2))
        return q

    def operator(self, theta: np.ndarray, cfg: GridSolverConfig | None = None):
        """Sparse flux-balance operator A with A @ const = 0 (pure Neumann)."""
        cfg = cfg or self.cfg
        grid = _CellGrid(cfg.nx, cfg.ny)
        X, Y = grid.centers()
        kappa = permeability_field(np.column_stack([X.ravel(), Y.ravel()]), theta)
        if np.any(kappa <= 0.0):
            raise InvalidParameterError(
                f"permeability must be positive everywhere (min {kappa.min():.3e})"
            )
        ax, bx, ay, by = _face_pairs(cfg.nx, cfg.ny)
        harm_x = 2.0 * kappa[ax] * kappa[bx] / (kappa[ax] + kappa[bx]) / grid.dx**2
        harm_y = 2.0 * kappa[ay] * kappa[by] / (kappa[ay] + kappa[by]) / grid.dy**2
        return grid, _flux_operator(cfg.nx, cfg.ny, harm_x, harm_y)

    def _fields(self, theta: np.ndarray, cfg: GridSolverConfig) -> dict[str, np.ndarray]:
        grid, A = self.operator(theta, cfg)
        q = self.source_field(grid).ravel()
        u = np.zeros(q.size)
        try:
            u[1:] = splu(A[1:, 1:]).solve((q - q.mean())[1:])
        except RuntimeError as exc:
            raise SolverError(f"Darcy system is singular: {exc}") from exc
        if not np.all(np.isfinite(u)):
            raise SolverError("Darcy solve produced non-finite values")
        return {"field": (u - u.mean()).reshape(cfg.ny, cfg.nx)}


def generate_measurements(model: ForwardModel, theta_true: np.ndarray, noise_vars,
                          seed: int = 0) -> MeasurementModel:
    """Synthesize data on the refined discretization and add seeded noise."""
    outputs = model.fine_evaluate(theta_true)
    noise_vars = np.broadcast_to(np.asarray(noise_vars, dtype=float), outputs.shape).copy()
    rng = np.random.default_rng(seed)
    z = outputs + rng.normal(0.0, np.sqrt(noise_vars))
    return MeasurementModel(z, noise_vars)


def write_grid_field(path, field: np.ndarray) -> None:
    """Dump a (ny, nx) field: header line "nx ny", then one row per line."""
    field = np.atleast_2d(field)
    ny, nx = field.shape
    with open(path, "w") as fh:
        fh.write(f"{nx} {ny}\n")
        for row in field:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
