"""Benchmark forward models behind one evaluation interface.

Three problems: a scalar rational function on an interval, transient heat
diffusion with a compactly supported Gaussian source on the unit square, and
steady Darcy flow with a radial-basis permeability field. The PDE models are
discretized with cell-centered finite differences (backward Euler in time for
the heat problem, harmonic-mean face conductivities for Darcy) and carry a
finer companion discretization for generating synthetic data, so inversion
never runs on the same grid that produced the measurements.

The heat step has constant coefficients and zero-flux walls, so the cosine
basis diagonalizes it: the heat model multiplies by the orthonormal DCT-II
basis matrix of each grid axis and sums each mode's march in closed form. The Darcy
operator depends on theta and is factorized by a banded Cholesky on every
solve; `scipy.linalg` is imported there, so importing this module needs numpy alone.
A `GridSolverConfig` is one grid: its shape, time step, cell centres and
interpolation. The PDE models' shared base builds each grid's theta-free arrays
once, at its first solve (heat: each measurement time's modal gain, cosine bases; Darcy:
radial basis, zero-mean source); each model supplies its named solution fields
from them, and the base reads the fields out at the sensors.

Every concrete model counts its `evaluate` calls in `n_evals`; data
generation through `fine_evaluate` is not counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SolverError
from .likelihood import MeasurementModel


@dataclass(frozen=True)
class GridSolverConfig:
    """Cell-centered uniform nx-by-ny grid on the unit square, and a time step."""

    nx: int
    ny: int
    dt: float = 0.01

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError("grid must have at least 8 cells per side")
        if self.dt <= 0.0:
            raise ValueError("time step must be positive")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dy(self) -> float:
        return 1.0 / self.ny

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """The (ny, nx) x and y coordinates of the cell centres."""
        return np.meshgrid((np.arange(self.nx) + 0.5) * self.dx,
                           (np.arange(self.ny) + 0.5) * self.dy)

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
        return (field[j0, i0] * (1 - fx) * (1 - fy) + field[j0, i0 + 1] * fx * (1 - fy)
                + field[j0 + 1, i0] * (1 - fx) * fy + field[j0 + 1, i0 + 1] * fx * fy)


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


def _neumann_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of the 1-D zero-flux second difference -u'' on n cells of width h.

    The orthonormal DCT-II vectors cos(pi k (j + 1/2) / n) are its
    eigenvectors, with eigenvalues (2 sin(pi k / 2n) / h)^2, k = 0..n-1.
    """
    return (2.0 * np.sin(0.5 * np.pi * np.arange(n) / n) / h) ** 2


def _cosine_basis(n: int) -> np.ndarray:
    """(n, n) orthonormal DCT-II basis: column k is sqrt((2 - [k=0]) / n) cos(pi k (j + 1/2) / n)."""
    j, k = np.meshgrid(np.arange(n) + 0.5, np.arange(n), indexing="ij")
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * k * j / n)
    basis[:, 0] = np.sqrt(1.0 / n)
    return basis


class _GridModel(ForwardModel):
    """A PDE model on a cell-centered grid of the unit square, read out at a
    square sensor grid: the inversion grid `cfg` (32² by default) and the data
    grid `fine_cfg` (128²).

    A subclass supplies `SENSORS_PER_SIDE`, `_prepare(cfg)`, a grid's theta-free arrays,
    and `_fields(theta, cfg, *prepared)`, its named (ny, nx) solution fields in output
    order. Each grid is prepared once, at its first solve; the outputs are every field's
    sensor values in turn.
    """

    SENSORS_PER_SIDE: int

    def __init__(self, cfg: GridSolverConfig = GridSolverConfig(32, 32),
                 fine_cfg: GridSolverConfig = GridSolverConfig(128, 128), n_fields: int = 1):
        super().__init__()
        self.cfg = cfg
        self.fine_cfg = fine_cfg
        self.sensors = sensor_grid(self.SENSORS_PER_SIDE)
        self.output_dim = n_fields * self.sensors.shape[0]
        self._prepared: dict[GridSolverConfig, tuple] = {}

    def _solve(self, theta: np.ndarray, cfg: GridSolverConfig) -> dict[str, np.ndarray]:
        if cfg not in self._prepared:
            self._prepared[cfg] = self._prepare(cfg)
        return self._fields(theta, cfg, *self._prepared[cfg])

    def _readout(self, theta: np.ndarray, cfg: GridSolverConfig) -> np.ndarray:
        return np.concatenate([cfg.interpolate(field, self.sensors)
                               for field in self._solve(theta, cfg).values()])

    def _evaluate(self, theta):
        return self._readout(theta, self.cfg)

    def _fine_evaluate(self, theta):
        return self._readout(theta, self.fine_cfg)

    def fields(self, theta: np.ndarray, fine: bool = False) -> dict[str, np.ndarray]:
        """The named (ny, nx) solution fields on the inversion grid, or on the data grid."""
        return self._solve(self._checked(theta), self.fine_cfg if fine else self.cfg)


class HeatSource2D(_GridModel):
    """Transient diffusion driven by a Gaussian source that switches off.

    The source of total strength AMPLITUDE and width SOURCE_WIDTH sits at
    the unknown location theta in [0,1]^2 and is active for t <= SOURCE_TIME.
    Outputs are the field values at a square sensor grid at each measurement
    time, time-major (all sensors at the first time, then at the second); the
    fields are named field_t<time>.

    Each backward-Euler step solves (I - dt Lap) u_k = u_{k-1} + dt s. The
    five-point Laplacian with zero-flux walls is diagonal in the 2-D cosine
    basis, so the solve transforms the source once (Phi_y^T S Phi_x with the
    orthonormal DCT-II basis matrices of the two axes) and, per measurement
    time, scales every mode by its summed damping over the steps so far (see
    `_prepare`) and transforms back (Phi_y M Phi_x^T).
    """

    input_dim = 2
    SENSORS_PER_SIDE = 3
    AMPLITUDE = 2.0
    SOURCE_WIDTH = 0.05
    SOURCE_TIME = 0.1

    def __init__(
        self,
        cfg: GridSolverConfig = GridSolverConfig(32, 32, dt=0.01),
        fine_cfg: GridSolverConfig = GridSolverConfig(128, 128, dt=0.0025),
        measure_times: tuple[float, ...] = (0.1, 0.2),
    ):
        if len({f"{tm:g}" for tm in measure_times}) != len(measure_times):
            raise ValueError(f"measurement times {measure_times} must have distinct names")
        super().__init__(cfg, fine_cfg, n_fields=len(measure_times))
        self.measure_times = tuple(measure_times)

    def _prepare(self, cfg: GridSolverConfig) -> tuple:
        """The cell centres, each output field's (ny, nx) modal gain and the cosine bases
        of the y and x axes. Each step damps a mode by d = 1 / (1 + r), r = dt (lambda_x +
        lambda_y); after M steps, the first K = min(M, SOURCE_TIME / dt) with the source on, it
        holds sum_{s <= K} d^(M - s + 1) = d^(M - K) (1 - d^K) / r (K if r = 0) times its kick."""
        def steps(tm: float, what: str) -> int:
            n = int(round(tm / cfg.dt))
            if n < 1 or abs(n * cfg.dt - tm) > 1e-9:
                raise ValueError(f"time step {cfg.dt} does not hit {what} {tm}")
            return n

        meas_steps = [steps(tm, "measurement time") for tm in self.measure_times]
        source_steps = steps(self.SOURCE_TIME, "source switch-off time")
        rate = cfg.dt * (_neumann_eigenvalues(cfg.ny, cfg.dy)[:, None]
                         + _neumann_eigenvalues(cfg.nx, cfg.dx)[None, :])
        log_d = -np.log1p(rate)
        gains = {}
        for tm, M in zip(self.measure_times, meas_steps):
            K = min(M, source_steps)
            gains[f"field_t{tm:g}"] = np.divide(np.exp((M - K) * log_d) * -np.expm1(K * log_d), rate,
                                                out=np.full(rate.shape, float(K)), where=rate > 0.0)
        return cfg.centers(), gains, _cosine_basis(cfg.ny), _cosine_basis(cfg.nx)

    def _source_field(self, centers: tuple, theta: np.ndarray) -> np.ndarray:
        X, Y = centers
        r2 = (X - theta[0]) ** 2 + (Y - theta[1]) ** 2
        return self.AMPLITUDE / (2.0 * np.pi * self.SOURCE_WIDTH**2) * np.exp(
            -r2 / (2.0 * self.SOURCE_WIDTH**2)
        )

    def _fields(self, theta: np.ndarray, cfg: GridSolverConfig, centers: tuple, gains: dict,
                phi_y: np.ndarray, phi_x: np.ndarray) -> dict[str, np.ndarray]:
        source = self._source_field(centers, theta)
        if not np.all(np.isfinite(source)):
            raise SolverError("heat source has non-finite values")
        kick = phi_y.T @ (cfg.dt * source) @ phi_x
        fields = {name: phi_y @ (gain * kick) @ phi_x.T for name, gain in gains.items()}
        if not all(np.all(np.isfinite(u)) for u in fields.values()):
            raise SolverError("heat solve produced non-finite values")
        return fields


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


def rbf_basis(points: np.ndarray) -> np.ndarray:
    """The (m, 9) radial basis functions at the given (m, 2) points, so that the
    permeability there is kappa(x; theta) = rbf_basis(x) @ theta."""
    points = np.atleast_2d(points)
    r2 = (points[:, :1] - RBF_CENTERS[:, 0]) ** 2 + (points[:, 1:] - RBF_CENTERS[:, 1]) ** 2
    return np.exp(-r2 / (2.0 * RBF_WIDTH**2))


def _face_conductivities(kappa: np.ndarray, cfg: GridSolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic means of the adjacent cells' permeabilities in the (ny, nx) `kappa`
    over dx^2 on the (ny, nx - 1) x-faces and over dy^2 on the (ny - 1, nx) y-faces."""
    if np.any(kappa <= 0.0):
        raise InvalidParameterError(f"permeability must be positive everywhere (min {kappa.min():.3e})")
    west, east, south, north = kappa[:, :-1], kappa[:, 1:], kappa[:-1], kappa[1:]
    return (2.0 * west * east / (west + east) / cfg.dx**2,
            2.0 * south * north / (south + north) / cfg.dy**2)


def _flux_balance(u: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """A u for a (ny, nx) field: each cell's sum over its faces of coef * (u_cell - u_neighbour)."""
    fx, fy = cx * (u[:, :-1] - u[:, 1:]), cy * (u[:-1] - u[1:])
    # The outflow of each cell is the difference of its face fluxes; none crosses the walls.
    return (np.diff(fx, axis=1, prepend=0.0, append=0.0)
            + np.diff(fy, axis=0, prepend=0.0, append=0.0))


def _pinned_band(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """LAPACK lower band storage, shape (nx + 1, nx ny - 1), of A[1:, 1:], the
    flux matrix without its first cell's row and column: row 0 holds the
    diagonal, row 1 the x-face couplings and row nx the y-face couplings."""
    ny, nx = cx.shape[0], cy.shape[1]
    band = np.zeros((nx + 1, ny, nx))
    band[1, :, :-1], band[nx, :-1] = -cx, -cy
    # A's rows sum to zero: the diagonal is minus a cell's couplings to its east and
    # north neighbours and, rolled by 1 and nx cells over the zero last column and
    # row, to its west and south ones.
    band[0] = -(band[1] + np.roll(band[1], 1) + band[nx] + np.roll(band[nx], nx))
    return band.reshape(nx + 1, -1)[:, 1:]


class DarcyPermeability2D(_GridModel):
    """Steady flow: -div(kappa grad u) = q, zero flux across the boundary,
    zero-mean pressure. The nine parameters weigh the radial basis functions
    of the permeability field, and the one output field is named field.

    Face conductivities use harmonic means of the adjacent cell values. The
    flux operator A is symmetric and annihilates constants, so A u = q is
    solvable only for zero-mean q, and then only up to a constant: the solve
    removes the mean of the discretized source, pins the first cell at 0 and
    shifts the result to zero mean. A[1:, 1:] is then positive definite with
    bandwidth nx: a banded Cholesky factors it straight from the face conductivities.
    """

    input_dim = 9
    SENSORS_PER_SIDE = 5

    def source_field(self, cfg: GridSolverConfig) -> np.ndarray:
        X, Y = cfg.centers()
        q = np.zeros_like(X)
        for (cx, cy), w in zip(SOURCE_CENTERS, SOURCE_WEIGHTS):
            r2 = (X - cx) ** 2 + (Y - cy) ** 2
            q += w / (2.0 * np.pi * SOURCE_WIDTH**2) * np.exp(-r2 / (2.0 * SOURCE_WIDTH**2))
        return q

    def _prepare(self, cfg: GridSolverConfig) -> tuple[np.ndarray, np.ndarray]:
        """The (cells, 9) radial basis at the cell centres and the source less its mean."""
        q = self.source_field(cfg)
        return rbf_basis(np.column_stack([c.ravel() for c in cfg.centers()])), q - q.mean()

    def _fields(self, theta: np.ndarray, cfg: GridSolverConfig, basis: np.ndarray,
                q: np.ndarray) -> dict[str, np.ndarray]:
        from scipy.linalg import cho_solve_banded, cholesky_banded

        cx, cy = _face_conductivities((basis @ theta).reshape(cfg.ny, cfg.nx), cfg)
        try:
            factor = cholesky_banded(_pinned_band(cx, cy), lower=True, check_finite=False), True
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"Darcy system is singular: {exc}") from exc
        # Solve from u = 0, then refine once on the same factor (2e-12 error without it).
        u = np.zeros_like(q)
        for _ in range(2):
            residual = q - _flux_balance(u, cx, cy)
            u.flat[1:] += cho_solve_banded(factor, residual.flat[1:], check_finite=False)
        if not np.all(np.isfinite(u)):
            raise SolverError("Darcy solve produced non-finite values")
        return {"field": u - u.mean()}


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
    np.savetxt(path, field, fmt="%.17g", delimiter=" ",
               header=f"{field.shape[1]} {field.shape[0]}", comments="")
