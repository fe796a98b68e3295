import importlib.machinery
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, rosen, rosen_der

import gpinv.acquisition as acq
from gpinv.acquisition import (
    AcquisitionState,
    expected_improvement,
    expected_improvement_smoothed,
    maximize_acquisition,
    multistart_maximize_batch,
    screen_acquisition,
    smoothed_pos,
)
from gpinv.designs import DesignBox
from gpinv.gp import GpEnsemble, HyperParams, TrainingSet, fit_single
from gpinv.likelihood import MeasurementModel
from oracles import misfits_and_grads, multistart_maximize, pred_grad


def make_state(seed=0, n=6, p=2, q=2, n_psi=6):
    rng = np.random.default_rng(seed)
    tr = TrainingSet.from_data(rng.uniform(-1, 1, (n, p)), rng.normal(0, 1, (n, q)))
    psis = [HyperParams(rng.uniform(0.5, 2), rng.uniform(0.3, 1.5, p)).as_vector()
            for _ in range(n_psi)]
    ens = GpEnsemble(tr, psis)
    meas = MeasurementModel(rng.normal(0, 1, q), np.full(q, 0.25))
    box = DesignBox(np.full(p, -1.0), np.full(p, 1.0))
    return AcquisitionState.from_ensemble(ens, meas, box), rng


class TestSmoothedPos:
    def test_left_branch(self):
        assert smoothed_pos(-1.0, 0.5) == (0.0, 0.0)

    def test_right_branch(self):
        eta = 0.3
        value, deriv = smoothed_pos(2 * eta, eta)
        assert value == pytest.approx(1.5 * eta)
        assert deriv == 1.0

    def test_middle_branch_at_half_eta(self):
        eta = 0.8
        value, deriv = smoothed_pos(eta / 2, eta)
        assert value == pytest.approx(3 * eta / 32)
        assert deriv == pytest.approx(0.5)

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            smoothed_pos(1.0, 0.0)

    @given(x=st.floats(-10, 10), eta=st.floats(1e-6, 5.0))
    @example(x=1e-6, eta=1.0000000000000002e-6)  # the ramp's slope rounded to 1 + 1 ulp
    @settings(max_examples=500, deadline=None)
    def test_sandwich_property(self, x, eta):
        value, deriv = smoothed_pos(x, eta)
        hinge = max(x, 0.0)
        assert value <= hinge + 1e-15
        assert hinge <= value + 0.5 * eta + 1e-15
        assert 0.0 <= deriv <= 1.0

    @given(eta=st.floats(1e-6, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_branch_boundary_continuity(self, eta):
        def mid(x):
            return x**3 / eta**2 - x**4 / (2 * eta**3)

        def mid_deriv(x):
            return 3 * x**2 / eta**2 - 2 * x**3 / eta**3

        scale = max(1.0, eta)
        assert abs(mid(0.0) - 0.0) <= 1e-12 * scale
        assert abs(mid_deriv(0.0) - 0.0) <= 1e-12 * scale
        assert abs(mid(eta) - (eta - 0.5 * eta)) <= 1e-12 * scale
        assert abs(mid_deriv(eta) - 1.0) <= 1e-12 * scale

    def test_vectorized(self):
        value, deriv = smoothed_pos(np.array([-1.0, 0.05, 1.0]), 0.1)
        assert value.shape == deriv.shape == (3,)


class TestExpectedImprovement:
    def test_zero_at_training_inputs(self):
        state, _ = make_state(seed=1)
        for theta in state.ensemble.training.inputs:
            assert expected_improvement(theta[None], state)[0] == pytest.approx(0.0, abs=1e-9)

    def test_bounded_by_g_min(self):
        state, rng = make_state(seed=2)
        for theta in rng.uniform(-1, 1, (50, 2)):
            value = expected_improvement(theta[None], state)[0]
            assert 0.0 <= value <= state.g_min + 1e-12

    def test_hand_arithmetic_average(self, monkeypatch):
        state, _ = make_state(seed=3, n_psi=2)
        monkeypatch.setattr(acq, "_misfit_batch",
                            lambda thetas, ens, meas: np.array([[4.0, 16.0]]).T)
        fixed = AcquisitionState(state.ensemble, state.meas, 10.0, state.bounds)
        assert expected_improvement(np.zeros((1, 2)), fixed)[0] == pytest.approx(3.0)

    def test_batch_matches_pointwise(self):
        state, rng = make_state(seed=14)
        thetas = np.vstack([rng.uniform(-1, 1, (37, 2)), state.ensemble.training.inputs])
        batch = expected_improvement(thetas, state)
        pointwise = [expected_improvement(theta[None], state)[0] for theta in thetas]
        np.testing.assert_allclose(batch, pointwise, rtol=1e-10, atol=1e-12)

    def test_screen_covers_box_and_design_neighbourhoods(self):
        state, _ = make_state(seed=15)
        candidates, values = screen_acquisition(state)
        n = state.ensemble.training.n_train
        assert candidates.shape == (acq.SCREEN_POINTS + n * acq.SCREEN_NEIGHBOURS, 2)
        assert np.all(state.bounds.contains(candidates))
        near = candidates[acq.SCREEN_POINTS:].reshape(n, acq.SCREEN_NEIGHBOURS, 2)
        offsets = np.abs(near - state.ensemble.training.inputs[:, None, :]).max(axis=2)
        assert np.all(offsets <= acq.SCREEN_RADIUS * 2.0 + 1e-12)  # box width 2
        assert np.all(offsets > 0.0)
        np.testing.assert_array_equal(values, expected_improvement(candidates, state))

    def test_maximum_achievable_improvement(self, monkeypatch):
        # Every member predicting the data exactly yields I = g_min.
        state, _ = make_state(seed=4, n_psi=3)
        monkeypatch.setattr(acq, "_misfit_batch",
                            lambda thetas, ens, meas: np.zeros((1, 3)).T)
        fixed = AcquisitionState(state.ensemble, state.meas, 7.5, state.bounds)
        assert expected_improvement(np.zeros((1, 2)), fixed)[0] == pytest.approx(7.5)


class TestSmoothedObjective:
    def test_sandwich_bound_everywhere(self, monkeypatch):
        monkeypatch.setattr(acq, "ETA", 1e-3)
        state, rng = make_state(seed=5)
        for theta in rng.uniform(-1, 1, (100, 2)):
            smoothed = expected_improvement_smoothed(theta[None], state)[0][0]
            exact = expected_improvement(theta[None], state)[0]
            assert smoothed <= exact + 1e-14
            assert exact <= smoothed + 0.5 * acq.ETA + 1e-14

    def test_gradient_matches_finite_differences(self):
        state, rng = make_state(seed=6)
        h = 1e-5
        checked = 0
        while checked < 100:
            theta = rng.uniform(-1, 1, 2)
            grad = expected_improvement_smoothed(theta[None], state)[1][0]
            fd = np.zeros(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd[k] = (expected_improvement_smoothed((theta + e)[None], state)[0][0]
                         - expected_improvement_smoothed((theta - e)[None], state)[0][0]) / (2 * h)
            scale = max(np.linalg.norm(grad), 1e-8)
            assert np.linalg.norm(grad - fd) / scale < 1e-4
            checked += 1


class TestGradGpMisfit:
    def test_pred_grad_matches_central_differences(self):
        state, rng = make_state(seed=15, n=8, q=3, n_psi=7)
        ens = state.ensemble
        h = 1e-6
        for theta in rng.uniform(-1, 1, (10, 2)):
            m, V, dm, dV = pred_grad(ens, theta)
            assert m.shape == (7, 3) and V.shape == (7,)
            assert dm.shape == (7, 3, 2) and dV.shape == (7, 2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                mp, Vp, _, _ = pred_grad(ens, theta + e)
                mm, Vm, _, _ = pred_grad(ens, theta - e)
                np.testing.assert_allclose(dm[:, :, k], (mp - mm) / (2 * h), rtol=1e-5, atol=1e-7)
                np.testing.assert_allclose(dV[:, k], (Vp - Vm) / (2 * h), rtol=1e-5, atol=1e-7)

    def test_variance_gradient_vanishes_at_training_inputs(self):
        state, _ = make_state(seed=7)
        ens = state.ensemble
        for theta in ens.training.inputs:
            _, _, _, dV = pred_grad(ens, theta)
            np.testing.assert_allclose(dV, 0.0, atol=1e-7)

    def test_finite_difference_match_over_random_designs(self):
        rng = np.random.default_rng(8)
        h = 1e-5
        for _ in range(5):
            tr = TrainingSet.from_data(rng.uniform(-1, 1, (5, 2)), rng.normal(0, 1, (5, 2)))
            psi = HyperParams(rng.uniform(0.5, 2), rng.uniform(0.4, 1.5, 2))
            meas = MeasurementModel(rng.normal(0, 1, 2), np.full(2, 0.25))
            for _ in range(20):
                theta = rng.uniform(-1, 1, 2)
                ens1 = GpEnsemble(tr, psi.as_vector())
                grad = misfits_and_grads(ens1, meas, theta)[1][0]
                fd = np.zeros(2)
                for k in range(2):
                    e = np.zeros(2)
                    e[k] = h
                    gp_ = misfits_and_grads(ens1, meas, theta + e)[0][0]
                    gm_ = misfits_and_grads(ens1, meas, theta - e)[0][0]
                    fd[k] = (gp_ - gm_) / (2 * h)
                assert np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-8) < 1e-5

    def test_batched_member_gradients_match_oracle(self):
        state, rng = make_state(seed=16, n=8, q=3, n_psi=7)
        thetas = np.vstack([rng.uniform(-1, 1, (11, 2)), state.ensemble.training.inputs[:2]])
        g, dg = acq._misfit_grads_batch(thetas, state.ensemble, state.meas)
        g, dg = g.T, dg.transpose(2, 0, 1)
        assert g.shape == (13, 7) and dg.shape == (13, 7, 2)
        for theta, g_row, dg_row in zip(thetas, g, dg):
            g_ref, dg_ref = misfits_and_grads(state.ensemble, state.meas, theta)
            np.testing.assert_allclose(g_row, g_ref, rtol=1e-12)
            np.testing.assert_allclose(dg_row, dg_ref, rtol=1e-9, atol=1e-12 * np.abs(dg_ref).max())

    def test_block_allocates_one_means_array(self):
        # At the heat protocol's scale one block's means take 0.44 MiB; a kernel
        # that builds (J, q, B) residual, denominator or coefficient arrays
        # besides the means peaks above the bound.
        state, rng = make_state(seed=19, n=12, q=18, n_psi=200)
        thetas = rng.uniform(-1, 1, (acq.SCREEN_BLOCK, 2))
        acq._misfit_grads_batch(thetas, state.ensemble, state.meas)
        tracemalloc.start()
        try:
            acq._misfit_grads_batch(thetas, state.ensemble, state.meas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * 2**20

    def test_single_point_symbolic_oracle(self):
        # One training point at the origin with identity normalization:
        # m(theta) = exp(-theta^2) v1, so dm/dtheta = -2 theta exp(-theta^2) v1.
        tr = TrainingSet(
            inputs=np.array([[0.0]]), raw_outputs=np.array([[2.0]]),
            out_means=np.zeros(1), out_vars=np.ones(1), scaled_outputs=np.array([[2.0]]),
        )
        ens = GpEnsemble(tr, [1.0, 1.0])
        v1 = fit_single(tr, HyperParams(1.0, [1.0])).weights[0, 0]
        for theta in (0.3, -0.7, 1.2):
            _, _, dm, _ = pred_grad(ens, np.array([theta]))
            assert dm[0, 0, 0] == pytest.approx(-2 * theta * np.exp(-theta**2) * v1, rel=1e-10)


class TestSmoothedBatch:
    def test_row_independent_of_its_block(self):
        state, rng = make_state(seed=17, n=8, q=3, n_psi=9)
        block = rng.uniform(-1, 1, (acq.SCREEN_BLOCK, 2))
        values, grads = expected_improvement_smoothed(block, state)
        assert values.shape == (acq.SCREEN_BLOCK,) and grads.shape == (acq.SCREEN_BLOCK, 2)
        assert np.count_nonzero(values) > acq.SCREEN_BLOCK // 2
        for theta, value, grad in zip(block, values, grads):
            alone, alone_grad = expected_improvement_smoothed(theta[None], state)
            assert alone[0] == pytest.approx(value, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(alone_grad[0], grad, rtol=1e-12, atol=0.0)

    def test_blocks_cover_more_rows_than_one_block(self):
        state, rng = make_state(seed=18)
        thetas = rng.uniform(-1, 1, (2 * acq.SCREEN_BLOCK + 3, 2))
        values, grads = expected_improvement_smoothed(thetas, state)
        for lo in range(0, len(thetas), acq.SCREEN_BLOCK):
            part = expected_improvement_smoothed(thetas[lo:lo + acq.SCREEN_BLOCK], state)
            np.testing.assert_array_equal(values[lo:lo + acq.SCREEN_BLOCK], part[0])
            np.testing.assert_array_equal(grads[lo:lo + acq.SCREEN_BLOCK], part[1])


class TestLockstepDriver:
    """The lockstep L-BFGS-B driver calls scipy's private `_lbfgsb.setulb`.

    Given a row-independent batched objective it must take, start by start,
    the iterates of `minimize(method="L-BFGS-B")` with the same settings.
    """

    @staticmethod
    def scipy_ascent(objective, x0, box):
        res = minimize(lambda x: tuple(-np.asarray(v) for v in objective(x)), x0, jac=True,
                       method="L-BFGS-B", bounds=list(zip(box.lower, box.upper)),
                       options={"ftol": acq.STEP_TOL, "gtol": acq.GRAD_TOL, "maxiter": 500})
        return res.x, -res.fun, res.success

    @pytest.mark.parametrize("upper, ends", [(2.0, "interior"), (0.7, "face")])
    def test_rosenbrock_matches_minimize_bit_for_bit(self, upper, ends):
        box = DesignBox(np.full(3, -2.0), np.full(3, upper))
        starts = box.sample(np.random.default_rng(19), 20)

        def objective(theta):
            return -rosen(theta), -rosen_der(theta)

        def rows(X):
            return (np.array([objective(x)[0] for x in X]), np.array([objective(x)[1] for x in X]))

        optima = multistart_maximize_batch(rows, starts, box).local_optima
        for x0, opt in zip(starts, optima):
            x, value, success = self.scipy_ascent(objective, x0, box)
            np.testing.assert_array_equal(opt.theta, x)
            assert opt.value == value
            assert opt.converged == success
        on_face = [np.any((o.theta == box.lower) | (o.theta == box.upper)) for o in optima]
        assert any(on_face) if ends == "face" else not all(on_face)
        assert sum(o.converged for o in optima) >= 15

    def test_abnormal_line_search_matches_minimize(self):
        box = DesignBox([-1.0], [1.0])

        def objective(theta):
            if theta[0] < 0.25:
                return 1.0 - theta[0] ** 2, -2.0 * theta
            return 5.0, np.ones(1)  # a plateau whose gradient claims ascent

        starts = np.array([[0.0], [0.5], [0.3], [0.9], [-0.6]])
        result = multistart_maximize(objective, starts, box)
        assert 0 < sum(o.converged for o in result.local_optima) < len(starts)
        for x0, opt in zip(starts, result.local_optima):
            x, value, success = self.scipy_ascent(objective, x0, box)
            np.testing.assert_array_equal(opt.theta, x)
            assert opt.value == value
            assert opt.converged == success

    def test_ascent_loads_only_the_lbfgsb_extension(self):
        code = """
import sys
import numpy as np
from gpinv.acquisition import multistart_maximize_batch
from gpinv.designs import DesignBox
box = DesignBox([-1.0, -1.0], [1.0, 1.0])
result = multistart_maximize_batch(lambda X: (-((X - 0.3) ** 2).sum(axis=1), -2.0 * (X - 0.3)),
                                   np.array([[0.9, -0.9], [-0.5, 0.5]]), box)
assert np.allclose(result.theta, 0.3), result.theta
print(sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
loaded = sys.modules["scipy.optimize._lbfgsb"]
from scipy.optimize import _lbfgsb, minimize
assert _lbfgsb is loaded and sys.modules["scipy.optimize._lbfgsb"] is loaded
res = minimize(lambda x: ((x - 0.3) ** 2).sum(), [0.9, -0.9], method="L-BFGS-B")
assert res.success and np.allclose(res.x, 0.3, atol=1e-6), res
"""
        env = {**os.environ, "PYTHONPATH": str(Path(acq.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "['scipy.optimize._lbfgsb']"

    def test_package_import_after_an_ascent_leaves_the_attribute_unbound(self):
        # The import system binds a submodule as a package attribute only when
        # it loads the submodule itself; scipy's own L-BFGS-B reaches the
        # shared module through `from . import _lbfgsb`, which still works.
        code = """
import sys
import numpy as np
from gpinv.acquisition import multistart_maximize_batch
from gpinv.designs import DesignBox
box = DesignBox([-1.0, -1.0], [1.0, 1.0])
multistart_maximize_batch(lambda X: (-((X - 0.3) ** 2).sum(axis=1), -2.0 * (X - 0.3)),
                          np.array([[0.9, -0.9]]), box)
loaded = sys.modules["scipy.optimize._lbfgsb"]
import scipy.optimize
assert "_lbfgsb" not in vars(scipy.optimize)
res = scipy.optimize.minimize(lambda x: ((x - 0.3) ** 2).sum(), [0.9, -0.9], method="L-BFGS-B")
assert res.success and np.allclose(res.x, 0.3, atol=1e-6), res
from scipy.optimize import _lbfgsb
assert _lbfgsb is loaded
assert "_lbfgsb" not in vars(scipy.optimize)
"""
        env = {**os.environ, "PYTHONPATH": str(Path(acq.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_missing_extension_is_an_import_error(self, tmp_path, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb", raising=False)
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations.append(str(tmp_path))
        monkeypatch.setattr(acq.importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "optimize"))):
            acq._load_lbfgsb()


class TestMultistartMaximize:
    def test_concave_quadratic_box_projection(self):
        # max -(x - c)^2 with c outside the box: optimum is the projection.
        box = DesignBox([-1.0, -1.0], [1.0, 1.0])
        center = np.array([2.0, 0.3])

        def objective(theta):
            diff = theta - center
            return -float(diff @ diff), -2.0 * diff

        starts = np.array([[0.0, 0.0], [-0.5, 0.9], [0.8, -0.8]])
        result = multistart_maximize(objective, starts, box)
        np.testing.assert_allclose(result.theta, [1.0, 0.3], atol=1e-6)
        assert not result.degraded
        assert len(result.local_optima) == 3

    def test_best_point_wins_even_without_convergence_flag(self):
        # L-BFGS-B can stop abnormally in its line search on a sharp maximum
        # it has already reached; that point still beats a converged lesser one.
        # Right of 0.25 the objective is a plateau at 5 whose gradient claims
        # ascent, so no trial step from 0.5 decreases -value enough and the
        # line search gives up there.
        box = DesignBox([-1.0], [1.0])

        def objective(theta):
            if theta[0] < 0.25:
                return 1.0 - theta[0] ** 2, -2.0 * theta
            return 5.0, np.ones(1)

        result = multistart_maximize(objective, np.array([[0.0], [0.5]]), box)
        assert [o.converged for o in result.local_optima] == [True, False]
        np.testing.assert_array_equal(result.theta, [0.5])
        assert result.value == 5.0
        assert not result.degraded

    def test_starts_outside_box_rejected(self):
        state, _ = make_state(seed=9)
        with pytest.raises(ValueError, match="inside"):
            maximize_acquisition(state, np.array([[2.0, 0.0]]))

    def test_empty_starts_rejected(self):
        state, _ = make_state(seed=10)
        with pytest.raises(ValueError):
            maximize_acquisition(state, np.empty((0, 2)))

    def test_degraded_flag_when_nothing_converges(self):
        box = DesignBox([-1.0], [1.0])

        def broken(theta):
            return float(theta[0]), np.array([np.nan])

        result = multistart_maximize(broken, np.array([[0.0], [0.5]]), box)
        assert result.degraded
        assert box.contains(result.theta[None, :])[0]

    def test_maximizer_feasible_and_deterministic(self):
        state, rng = make_state(seed=11)
        starts = rng.uniform(-1, 1, (8, 2))
        r1 = maximize_acquisition(state, starts)
        r2 = maximize_acquisition(state, starts)
        assert state.bounds.contains(r1.theta[None, :])[0]
        np.testing.assert_array_equal(r1.theta, r2.theta)

    def test_stationary_interior_gradient_small(self):
        state, rng = make_state(seed=12)
        starts = rng.uniform(-0.9, 0.9, (10, 2))
        result = maximize_acquisition(state, starts)
        interior = np.all((result.theta > state.bounds.lower + 1e-6)
                          & (result.theta < state.bounds.upper - 1e-6))
        if interior and not result.degraded and result.value > 1e-8:
            _, grads = expected_improvement_smoothed(result.theta[None], state)
            assert np.linalg.norm(grads[0]) < 1e-6


def test_acquisition_state_validation():
    state, _ = make_state(seed=13)
    with pytest.raises(ValueError):
        AcquisitionState(state.ensemble, state.meas, -1.0, state.bounds)
