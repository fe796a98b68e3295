"""Benchmark forward models behind one evaluation interface.

Three problems: a scalar rational function on an interval, transient heat
diffusion with a compactly supported Gaussian source on the unit square, and
steady Darcy flow with a radial-basis permeability field. The PDE models are
discretized with cell-centered finite differences (backward Euler in time for
the heat problem, harmonic-mean face conductivities for Darcy) and carry a
finer companion discretization for generating synthetic data, so inversion
never runs on the same grid that produced the measurements.

Every concrete model counts its `evaluate` calls in `n_evals`; data
generation through `fine_evaluate` is not counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse import eye as sparse_eye
from scipy.sparse.linalg import splu

from .errors import InvalidParameterError, SolverError
from .likelihood import MeasurementModel


@dataclass(frozen=True)
class GridSolverConfig:
    """Uniform-grid discretization parameters."""

    nx: int
    ny: int
    dt: float = 0.01
    t_end: float = 0.2

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
        self.cell_area = self.dx * self.dy

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

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


def _neumann_laplacian(grid: _CellGrid):
    """Five-point Laplacian with mirrored (zero-flux) boundaries."""
    ax, _, ay, _ = _face_pairs(grid.nx, grid.ny)
    coef_x = np.full(ax.size, 1.0 / grid.dx**2)
    coef_y = np.full(ay.size, 1.0 / grid.dy**2)
    return -_flux_operator(grid.nx, grid.ny, coef_x, coef_y)


class HeatSource2D(ForwardModel):
    """Transient diffusion driven by a Gaussian source that switches off.

    The source of total strength `amplitude` and width `source_width` sits at
    the unknown location theta in [0,1]^2 and is active for t <= source_time.
    Outputs are the field values at a square sensor grid at each measurement
    time, time-major (all sensors at the first time, then at the second).
    """

    input_dim = 2

    def __init__(
        self,
        cfg: GridSolverConfig = GridSolverConfig(32, 32, dt=0.01, t_end=0.2),
        fine_cfg: GridSolverConfig = GridSolverConfig(128, 128, dt=0.0025, t_end=0.2),
        sensors_per_side: int = 3,
        measure_times: tuple[float, ...] = (0.1, 0.2),
        amplitude: float = 2.0,
        source_width: float = 0.05,
        source_time: float = 0.1,
    ):
        super().__init__()
        self.cfg = cfg
        self.fine_cfg = fine_cfg
        self.sensors = sensor_grid(sensors_per_side)
        self.measure_times = tuple(measure_times)
        self.amplitude = amplitude
        self.source_width = source_width
        self.source_time = source_time
        self.output_dim = len(self.measure_times) * self.sensors.shape[0]
        self._solvers: dict[tuple, tuple] = {}

    def _stepper(self, cfg: GridSolverConfig):
        key = (cfg.nx, cfg.ny, cfg.dt)
        if key not in self._solvers:
            grid = _CellGrid(cfg.nx, cfg.ny)
            M = sparse_eye(grid.n_cells, format="csc") - cfg.dt * _neumann_laplacian(grid).tocsc()
            self._solvers[key] = (grid, splu(M))
        return self._solvers[key]

    def _source_field(self, grid: _CellGrid, theta: np.ndarray) -> np.ndarray:
        X, Y = grid.centers()
        r2 = (X - theta[0]) ** 2 + (Y - theta[1]) ** 2
        return self.amplitude / (2.0 * np.pi * self.source_width**2) * np.exp(
            -r2 / (2.0 * self.source_width**2)
        )

    def _march(self, theta: np.ndarray, cfg: GridSolverConfig) -> dict[float, np.ndarray]:
        grid, lu = self._stepper(cfg)
        n_steps = int(round(cfg.t_end / cfg.dt))
        meas_steps = {}
        for tm in self.measure_times:
            step = int(round(tm / cfg.dt))
            if abs(step * cfg.dt - tm) > 1e-9 or not 0 < step <= n_steps:
                raise ValueError(f"time step {cfg.dt} does not hit measurement time {tm}")
            meas_steps[step] = tm
        source_steps = int(round(self.source_time / cfg.dt))
        s = self._source_field(grid, theta).ravel()
        u = np.zeros(grid.n_cells)
        fields = {}
        for step in range(1, n_steps + 1):
            rhs = u + (cfg.dt * s if step <= source_steps else 0.0)
            u = lu.solve(rhs)
            if not np.all(np.isfinite(u)):
                raise SolverError(f"heat solve produced non-finite values at step {step}")
            if step in meas_steps:
                fields[meas_steps[step]] = u.reshape(grid.ny, grid.nx).copy()
        return fields

    def _readout(self, theta: np.ndarray, cfg: GridSolverConfig) -> np.ndarray:
        grid = _CellGrid(cfg.nx, cfg.ny)
        fields = self._march(theta, cfg)
        return np.concatenate([
            grid.interpolate(fields[tm], self.sensors) for tm in self.measure_times
        ])

    def _evaluate(self, theta):
        return self._readout(theta, self.cfg)

    def _fine_evaluate(self, theta):
        return self._readout(theta, self.fine_cfg)

    def solve_field(self, theta: np.ndarray, time: float, fine: bool = False) -> np.ndarray:
        """(ny, nx) temperature field at one measurement time, for inspection."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        cfg = self.fine_cfg if fine else self.cfg
        if time not in self.measure_times:
            raise ValueError(f"field snapshots are stored at {self.measure_times}")
        return self._march(theta, cfg)[time]


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


class DarcyPermeability2D(ForwardModel):
    """Steady flow: -div(kappa grad u) = q, zero flux across the boundary,
    zero-mean pressure. The nine parameters weigh the radial basis functions
    of the permeability field.

    Face conductivities use harmonic means of the adjacent cell values, and the
    zero-mean condition is imposed through one Lagrange multiplier, which also
    absorbs any residual incompatibility of the discretized source.
    """

    input_dim = 9

    def __init__(
        self,
        cfg: GridSolverConfig = GridSolverConfig(32, 32),
        fine_cfg: GridSolverConfig = GridSolverConfig(128, 128),
        sensors_per_side: int = 5,
    ):
        super().__init__()
        self.cfg = cfg
        self.fine_cfg = fine_cfg
        self.sensors = sensor_grid(sensors_per_side)
        self.output_dim = self.sensors.shape[0]

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

    def solve_field(self, theta: np.ndarray, cfg: GridSolverConfig | None = None) -> np.ndarray:
        """(ny, nx) zero-mean pressure field."""
        theta = np.asarray(theta, dtype=float).reshape(-1)
        cfg = cfg or self.cfg
        grid, A = self.operator(theta, cfg)
        n = grid.n_cells
        A = A.tocoo()
        ones = np.arange(n)
        rows = np.concatenate([A.row, ones, np.full(n, n)])
        cols = np.concatenate([A.col, np.full(n, n), ones])
        vals = np.concatenate([A.data, np.ones(n), np.ones(n)])
        aug = coo_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)).tocsc()
        rhs = np.concatenate([self.source_field(grid).ravel(), [0.0]])
        try:
            solution = splu(aug).solve(rhs)
        except RuntimeError as exc:
            raise SolverError(f"Darcy system is singular: {exc}") from exc
        if not np.all(np.isfinite(solution)):
            raise SolverError("Darcy solve produced non-finite values")
        return solution[:n].reshape(cfg.ny, cfg.nx)

    def _readout(self, theta: np.ndarray, cfg: GridSolverConfig) -> np.ndarray:
        grid = _CellGrid(cfg.nx, cfg.ny)
        return grid.interpolate(self.solve_field(theta, cfg), self.sensors)

    def _evaluate(self, theta):
        return self._readout(theta, self.cfg)

    def _fine_evaluate(self, theta):
        return self._readout(theta, self.fine_cfg)


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
