import numpy as np
import pytest

from gpinv.errors import InvalidParameterError, SolverError
from gpinv.forward_models import (
    PERMEABILITY_BOUNDS,
    PERMEABILITY_THETA_TRUE,
    RBF_CENTERS,
    RBF_WIDTH,
    DarcyPermeability2D,
    GridSolverConfig,
    HeatSource2D,
    Rational1D,
    generate_measurements,
    permeability_field,
    rational_1d,
    sensor_grid,
    write_grid_field,
)
from oracles import darcy_field_augmented, heat_fields_sparse


class TestRational:
    @pytest.mark.parametrize("theta,expected", [(2.0, 0.0), (3.0, 0.0), (0.0, 6.0)])
    def test_known_values(self, theta, expected):
        assert rational_1d(theta) == pytest.approx(expected)

    def test_model_interface_counts_evals(self):
        model = Rational1D()
        model.evaluate([1.0])
        model.evaluate([2.0])
        model.fine_evaluate([3.0])  # data generation is not budgeted
        assert model.n_evals == 2

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            Rational1D().evaluate([1.0, 2.0])

    def test_fine_evaluate_checks_dimension(self):
        with pytest.raises(ValueError, match="expected 1 parameters, got 2"):
            Rational1D().fine_evaluate([2.41, 1.0])


@pytest.mark.parametrize("model, theta", [
    (Rational1D(), [np.inf]),
    (HeatSource2D(), [np.inf, 0.5]),
    (HeatSource2D(), [0.5, np.nan]),
    (DarcyPermeability2D(), np.append(PERMEABILITY_THETA_TRUE[:-1], np.nan)),
])
def test_non_finite_parameters_rejected(model, theta):
    for evaluate in (model.evaluate, model.fine_evaluate, getattr(model, "fields", None)):
        if evaluate is not None:
            with pytest.raises(InvalidParameterError, match="finite"):
                evaluate(theta)
    assert model.n_evals == 0


class TestSensorGrid:
    def test_corners_convention(self):
        pts = sensor_grid(3)
        np.testing.assert_allclose(sorted(set(pts[:, 0])), [0.0, 0.5, 1.0])

    def test_row_major_layout(self):
        pts = sensor_grid(3)
        assert pts.shape == (9, 2)
        # row-major: x varies fastest
        np.testing.assert_allclose(pts[:3, 0], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(pts[:3, 1], 0.0)


class TestGridSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSolverConfig(4, 32)
        with pytest.raises(ValueError):
            GridSolverConfig(32, 32, dt=0.0)


class TestHeatSource:
    @pytest.fixture(scope="class")
    @staticmethod
    def model():
        return HeatSource2D()

    def test_output_layout(self, model):
        out = model.evaluate([0.25, 0.75])
        assert out.shape == (18,)

    def test_outputs_vanish_in_small_time_limit(self):
        # Zero initial condition: every reading decreases monotonically to 0
        # as the measurement time shrinks.
        def peak(t_end):
            m = HeatSource2D(cfg=GridSolverConfig(32, 32, dt=t_end / 4),
                             measure_times=(t_end,))
            return np.abs(m.evaluate([0.5, 0.5])).max()

        values = [peak(t) for t in (0.04, 0.01, 0.0025, 0.000625)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < values[0] / 4

    def test_heat_conservation(self, model):
        # Total heat at t = 0.2 equals the injected source mass 0.2 within 2%.
        field = model.fields([0.25, 0.75])["field_t0.2"]
        mass = field.sum() / (model.cfg.nx * model.cfg.ny)
        assert mass == pytest.approx(0.2, rel=0.02)

    def test_grid_refinement_consistency(self, model):
        doubled = HeatSource2D(cfg=GridSolverConfig(64, 64, dt=0.01))
        a = model.evaluate([0.25, 0.75])
        b = doubled.evaluate([0.25, 0.75])
        assert np.abs(a - b).max() / np.abs(b).max() < 0.01

    def test_deterministic(self, model):
        a = model.evaluate([0.3, 0.6])
        b = model.evaluate([0.3, 0.6])
        np.testing.assert_array_equal(a, b)

    def test_measure_time_must_align_with_dt(self):
        bad = HeatSource2D(cfg=GridSolverConfig(32, 32, dt=0.003), measure_times=(0.1,))
        with pytest.raises(ValueError, match="measurement time"):
            bad.evaluate([0.5, 0.5])

    def test_measure_times_must_be_distinct(self):
        # Each time names one output field, so a repeated time would drop outputs.
        with pytest.raises(ValueError, match="distinct"):
            HeatSource2D(measure_times=(0.1, 0.1))


# The short-dt grids are those of test_outputs_vanish_in_small_time_limit.
EIGENBASIS_GRIDS = [
    (GridSolverConfig(32, 32, dt=0.01), (0.1, 0.2)),
    (GridSolverConfig(128, 128, dt=0.0025), (0.1, 0.2)),
    (GridSolverConfig(24, 40, dt=0.01), (0.1, 0.2)),
    (GridSolverConfig(64, 16, dt=0.01), (0.1, 0.2)),
] + [(GridSolverConfig(32, 32, dt=t / 4), (t,)) for t in (0.04, 0.01, 0.0025, 0.000625)]


class TestHeatEigenbasisSolve:
    @pytest.mark.parametrize("cfg,times", EIGENBASIS_GRIDS)
    @pytest.mark.parametrize("theta", [(0.25, 0.75), (0.93, 0.08)])
    def test_matches_sparse_lu_march(self, cfg, times, theta):
        model = HeatSource2D(cfg=cfg, measure_times=times)
        fields = model.fields(theta)
        reference = heat_fields_sparse(model, theta, cfg)
        for tm in times:
            ref = reference[tm]
            assert fields[f"field_t{tm:g}"].shape == ref.shape == (cfg.ny, cfg.nx)
            assert np.abs(fields[f"field_t{tm:g}"] - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_non_finite_field_raises(self):
        with pytest.raises(SolverError, match="non-finite"):
            HeatSource2D(amplitude=np.inf).evaluate([0.5, 0.5])


class TestDarcy:
    @pytest.fixture(scope="class")
    @staticmethod
    def model():
        return DarcyPermeability2D()

    def test_source_is_neumann_compatible(self, model):
        from gpinv.forward_models import _CellGrid
        grid = _CellGrid(32, 32)
        q = model.source_field(grid)
        assert abs(q.sum() * grid.dx * grid.dy) < 1e-10

    def test_solution_mean_zero(self, model):
        u = model.fields(PERMEABILITY_THETA_TRUE)["field"]
        assert abs(u.mean()) < 1e-12

    def test_operator_annihilates_constants(self, model):
        _, A = model.operator(PERMEABILITY_THETA_TRUE)
        residual = np.abs(A @ np.ones(A.shape[0])).max()
        assert residual < 1e-9 * abs(A.diagonal()).max()

    def test_permeability_field_rbf_sum_oracle(self):
        x = np.array([[0.5, 0.5]])
        expected = sum(
            theta_i * np.exp(-np.sum((x[0] - c) ** 2) / (2 * RBF_WIDTH**2))
            for theta_i, c in zip(PERMEABILITY_THETA_TRUE, RBF_CENTERS))
        assert permeability_field(x, PERMEABILITY_THETA_TRUE)[0] == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_permeability_rejected(self, model):
        with pytest.raises(InvalidParameterError):
            model.evaluate(np.zeros(9))

    def test_grid_refinement_consistency(self, model):
        doubled = DarcyPermeability2D(cfg=GridSolverConfig(64, 64))
        a = model.evaluate(PERMEABILITY_THETA_TRUE)
        b = doubled.evaluate(PERMEABILITY_THETA_TRUE)
        assert np.abs(a - b).max() / np.abs(b).max() < 0.01

    def test_output_count(self, model):
        assert model.evaluate(PERMEABILITY_THETA_TRUE).shape == (25,)

    def test_singular_factorization_is_a_solver_error(self, model, monkeypatch):
        def singular(matrix):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr("gpinv.forward_models.splu", singular)
        with pytest.raises(SolverError, match="singular"):
            model.evaluate(PERMEABILITY_THETA_TRUE)


DARCY_THETAS = [PERMEABILITY_THETA_TRUE] + list(
    np.random.default_rng(13).uniform(*PERMEABILITY_BOUNDS, size=(3, 9)))


class TestDarcyPinnedSolve:
    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("theta", DARCY_THETAS)
    def test_matches_augmented_solve(self, n, theta):
        cfg = GridSolverConfig(n, n)
        field = DarcyPermeability2D(cfg=cfg).fields(theta)["field"]
        reference = darcy_field_augmented(DarcyPermeability2D(), theta, cfg)
        # Each solve rounds differently: on 128^2 both lie up to 6.2e-13 from an
        # extended-precision refinement of the same system, so they may differ by twice that.
        assert field.shape == reference.shape == (n, n)
        assert np.abs(field - reference).max() <= 2e-12 * np.abs(reference).max()


class TestGenerateMeasurements:
    def test_one_d_protocol(self):
        model = Rational1D()
        meas = generate_measurements(model, [2.41], 0.01**2, seed=0)
        assert meas.n_outputs == 1
        assert abs(meas.z[0] - rational_1d(2.41)) < 0.05
        np.testing.assert_allclose(meas.noise_vars, 1e-4)

    def test_heat_protocol(self):
        model = HeatSource2D()
        meas = generate_measurements(model, [0.25, 0.75], 0.1**2, seed=1)
        assert meas.n_outputs == 18
        # data comes from the refined discretization, not the inversion grid
        coarse = model.evaluate([0.25, 0.75])
        fine = model.fine_evaluate([0.25, 0.75])
        assert not np.allclose(coarse, fine)
        assert np.abs(meas.z - fine).max() < 0.5

    def test_seeded_reproducibility(self):
        model = Rational1D()
        a = generate_measurements(model, [2.41], 1e-4, seed=3)
        b = generate_measurements(model, [2.41], 1e-4, seed=3)
        np.testing.assert_array_equal(a.z, b.z)

    @pytest.mark.slow
    def test_permeability_protocol(self):
        model = DarcyPermeability2D()
        meas = generate_measurements(model, PERMEABILITY_THETA_TRUE, 0.01**2, seed=2)
        assert meas.n_outputs == 25
        np.testing.assert_allclose(meas.noise_vars, 1e-4)


def test_write_grid_field(tmp_path):
    field = np.arange(12, dtype=float).reshape(3, 4)
    path = tmp_path / "field.txt"
    write_grid_field(path, field)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "4 3"
    parsed = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    np.testing.assert_array_equal(parsed, field)
