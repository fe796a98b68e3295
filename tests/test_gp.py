import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

import gpinv.gp
from gpinv.errors import IllConditionedKernelError
from gpinv.gp import (
    GpEnsemble,
    HyperParams,
    TrainingSet,
    _back_subst,
    _factorize,
    _forward_subst,
    _lml_batch,
    fit_single,
    normalize_outputs,
)
from oracles import (
    ensemble_predict_vector,
    hyperparams_from_vector,
    log_marginal_likelihood,
    predict,
    sq_exp_cov,
)


def mixture_moments(means: np.ndarray, variances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moments of an equally weighted Gaussian mixture.

    Scalar components: `means` (m,), `variances` (m,) -> (mean, variance).
    Vector components: `means` (m, q), `variances` (m, q) diagonal covariances
    -> ((q,) mean, (q, q) covariance) via the outer-product form.
    """
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if means.shape[0] < 1:
        raise ValueError("mixture needs at least one component")
    if means.ndim == 1:
        mean = means.mean()
        var = variances.mean() + (means**2).mean() - mean**2
        return float(mean), float(var)
    mean = means.mean(axis=0)
    cov = np.diag(variances.mean(axis=0))
    cov += np.einsum("mi,mj->ij", means, means) / means.shape[0]
    cov -= np.outer(mean, mean)
    return mean, cov


def make_training(rng, n, p, q):
    return TrainingSet.from_data(rng.uniform(-2, 2, (n, p)), rng.normal(0, 1, (n, q)))


def random_psi(rng, p):
    return HyperParams(rng.uniform(0.5, 2.0), rng.uniform(0.4, 2.0, p))


class TestSqExpCov:
    def test_zero_distance_gives_signal_variance(self):
        psi = HyperParams(2.0, [1.0, 3.0])
        assert sq_exp_cov([0.3, -1.0], [0.3, -1.0], psi) == pytest.approx(4.0)

    def test_unit_distance(self):
        psi = HyperParams(1.0, [1.0])
        assert sq_exp_cov([0.0], [1.0], psi) == pytest.approx(np.exp(-1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            sq_exp_cov([0.0, 1.0], [0.0], HyperParams(1.0, [1.0]))

    @given(
        a=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
        b=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
        sigma=st.floats(0.1, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bound(self, a, b, sigma):
        psi = HyperParams(sigma, [0.7, 1.3])
        cab = sq_exp_cov(a, b, psi)
        assert cab == sq_exp_cov(b, a, psi)
        assert cab <= sigma**2 + 1e-15
        # strict inequality whenever the squared distance exceeds fp resolution
        if np.sum((np.array(a) - np.array(b)) ** 2) > 1e-12:
            assert cab < sigma**2

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            HyperParams(-1.0, [1.0])
        with pytest.raises(ValueError):
            HyperParams(1.0, [0.0])


class TestNormalizeOutputs:
    def test_two_point_column(self):
        scaled, means, variances = normalize_outputs(np.array([[2.0], [4.0]]))
        assert means[0] == pytest.approx(3.0)
        assert variances[0] == pytest.approx(1.0)
        np.testing.assert_allclose(scaled[:, 0], [-1.0, 1.0])

    def test_constant_column_hits_floor(self):
        scaled, _, variances = normalize_outputs(np.array([[5.0], [5.0], [5.0]]))
        np.testing.assert_array_equal(scaled, 0.0)
        assert variances[0] > 0.0

    def test_four_point_column(self):
        scaled, means, variances = normalize_outputs(np.array([[1.0], [2.0], [3.0], [4.0]]))
        assert means[0] == pytest.approx(2.5)
        assert variances[0] == pytest.approx(1.25)
        np.testing.assert_allclose(
            scaled[:, 0], [-1.3416408, -0.4472136, 0.4472136, 1.3416408], atol=1e-6)

    @given(st.integers(2, 30), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_population_moments(self, n, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(3.0, 2.0, (n, 2))
        scaled, means, variances = normalize_outputs(raw)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.var(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(scaled * np.sqrt(variances) + means, raw, atol=1e-10)


class TestFitSingle:
    def test_one_point_system(self):
        tr = TrainingSet(
            inputs=np.array([[0.0]]), raw_outputs=np.array([[0.5]]),
            out_means=np.zeros(1), out_vars=np.ones(1), scaled_outputs=np.array([[0.5]]),
        )
        fit = fit_single(tr, HyperParams(1.0, [1.0]))
        assert fit.chol[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert fit.weights[0, 0] == pytest.approx(0.5, rel=1e-8)

    def test_duplicate_rows_without_jitter_fail(self):
        tr = TrainingSet.from_data(np.array([[0.0], [0.0]]), np.array([1.0, -1.0]))
        with pytest.raises(IllConditionedKernelError) as err:
            fit_single(tr, HyperParams(1.0, [1.0]), jitter=0.0)
        assert err.value.cond_estimate > 1e10

    def test_two_point_weights_match_dense_solve(self):
        tr = TrainingSet.from_data(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
        psi = HyperParams(1.0, [1.0])
        fit = fit_single(tr, psi)
        C = np.array([[1.0, np.exp(-1.0)], [np.exp(-1.0), 1.0]])
        expected = np.linalg.solve(C, tr.scaled_outputs[:, 0])
        np.testing.assert_allclose(fit.weights[:, 0], expected, rtol=1e-8)
        np.testing.assert_allclose(expected, [1.58197671, -1.58197671], atol=1e-7)

    def test_chol_reconstructs_covariance(self):
        rng = np.random.default_rng(0)
        tr = make_training(rng, 8, 2, 1)
        psi = random_psi(rng, 2)
        fit = fit_single(tr, psi)
        C = np.array([[sq_exp_cov(a, b, psi) for b in tr.inputs] for a in tr.inputs])
        np.testing.assert_allclose(fit.chol @ fit.chol.T, C + fit.jitter * np.eye(8),
                                   rtol=1e-10, atol=1e-12)


class TestFactorize:
    """One stack with a row that factorizes at the first level of the jitter
    ladder and a row whose covariance is exactly singular: its length-scale
    of 1e100 hides the only difference between design rows 0 and 1."""

    @pytest.fixture
    def stack(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, (6, 2))
        X[1] = X[0] + np.array([0.0, 0.5])
        tr = TrainingSet.from_data(X, rng.normal(0, 1, (6, 1)))
        return tr, np.array([[1.0, 0.5, 0.5], [1.0, 0.5, 1e100]])

    def test_first_level_and_escalated_rows(self, stack):
        tr, Psi = stack
        L, shift = _factorize(tr.inputs, Psi, 1e-20)
        assert shift[0] == 1e-20
        assert shift[1] > 1e-20
        for row, L_row, shift_row in zip(Psi, L, shift):
            psi = hyperparams_from_vector(row)
            C = np.array([[sq_exp_cov(a, b, psi) for b in tr.inputs] for a in tr.inputs])
            np.testing.assert_allclose(L_row @ L_row.T, C + shift_row * np.eye(6), rtol=1e-10, atol=1e-12)
        escalated = fit_single(tr, hyperparams_from_vector(Psi[1]), jitter=1e-20)
        assert escalated.jitter == shift[1]
        np.testing.assert_array_equal(escalated.chol, L[1])

    def test_ensemble_records_escalated_rows(self, stack, monkeypatch, caplog):
        tr, Psi = stack
        monkeypatch.setattr(gpinv.gp, "BASE_JITTER", 1e-20)
        with caplog.at_level(logging.DEBUG, logger="gpinv.gp"):
            ens = GpEnsemble(tr, Psi)
        np.testing.assert_array_equal(ens.jitter_shifts, _factorize(tr.inputs, Psi, 1e-20)[1])
        assert ens.jitter_shifts[0] == 1e-20 and ens.jitter_shifts[1] > 1e-20
        assert "1 of 2 members escalated" in caplog.text

    def test_raw_factorization_failure(self, stack, monkeypatch):
        tr, Psi = stack
        L, shift = _factorize(tr.inputs, Psi, 0.0)
        assert shift[0] == 0.0 and np.isnan(shift[1])
        assert np.all(np.isfinite(L[0])) and np.all(np.isnan(L[1]))
        with pytest.raises(IllConditionedKernelError) as err:
            fit_single(tr, hyperparams_from_vector(Psi[1]), jitter=0.0)
        assert err.value.cond_estimate > 1e10
        # A ladder that starts at 0 leaves the singular row no level: -inf.
        monkeypatch.setattr(gpinv.gp, "BASE_JITTER", 0.0)
        lml = _lml_batch(tr, Psi)
        assert np.isfinite(lml[0]) and lml[1] == -np.inf

    def test_raw_failure_names_the_level_tried(self, stack, monkeypatch):
        tr, Psi = stack
        # jitter = 0 tries the raw covariance alone; there is no escalation to name.
        with pytest.raises(IllConditionedKernelError, match="relative jitter 0, the last level tried"):
            fit_single(tr, hyperparams_from_vector(Psi[1]), jitter=0.0)
        monkeypatch.setattr(gpinv.gp, "BASE_JITTER", 0.0)
        with pytest.raises(IllConditionedKernelError,
                           match="1 of 2 rows at relative jitter 0, the last level tried") as err:
            GpEnsemble(tr, Psi)
        np.testing.assert_array_equal(err.value.failed, [False, True])

    def test_exhausted_ladder_names_max_jitter(self, stack, monkeypatch):
        tr, Psi = stack
        monkeypatch.setattr(gpinv.gp, "_batched_cholesky",
                            lambda mats: (np.zeros_like(mats), np.zeros(mats.shape[0], dtype=bool)))
        with pytest.raises(IllConditionedKernelError, match="relative jitter 1e-06, the last level tried"):
            fit_single(tr, hyperparams_from_vector(Psi[0]))
        with pytest.raises(IllConditionedKernelError, match="2 of 2 rows at relative jitter 1e-06") as err:
            GpEnsemble(tr, Psi)
        assert err.value.failed.all()


class TestPredict:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(1)
        tr = make_training(rng, 6, 2, 3)
        fit = fit_single(tr, random_psi(rng, 2))
        for j in range(tr.n_train):
            means, var = predict(fit, tr.inputs[j])
            np.testing.assert_allclose(means, tr.scaled_outputs[j], atol=1e-6)
            assert 0.0 <= var < 1e-6

    def test_prior_reversion_far_away(self):
        tr = TrainingSet.from_data(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
        fit = fit_single(tr, HyperParams(1.5, [0.5]))
        means, var = predict(fit, [60.0])
        np.testing.assert_allclose(means, 0.0, atol=1e-12)
        assert var == pytest.approx(1.5**2, rel=1e-9)

    def test_two_point_midpoint_oracle(self):
        tr = TrainingSet.from_data(np.array([[0.0], [1.0]]), np.array([1.0, -1.0]))
        fit = fit_single(tr, HyperParams(1.0, [1.0]))
        means, var = predict(fit, [0.5])
        assert means[0] == pytest.approx(0.0, abs=1e-12)
        # dense oracle for the variance
        C = np.array([[1.0, np.exp(-1.0)], [np.exp(-1.0), 1.0]])
        c = np.exp(-0.25) * np.ones(2)
        expected = 1.0 - c @ np.linalg.solve(C, c)
        assert var == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(1.0 - 2.0 * np.exp(-0.5) / (1.0 + np.exp(-1.0)))

    def test_variance_clamped_nonnegative(self):
        rng = np.random.default_rng(2)
        tr = make_training(rng, 12, 1, 1)
        fit = fit_single(tr, HyperParams(1.0, [3.0]))
        for theta in rng.uniform(-2, 2, (200, 1)):
            _, var = predict(fit, theta)
            assert var >= 0.0


class TestLogMarginalLikelihood:
    def test_single_point_standard_normal(self):
        tr = TrainingSet.from_data(np.array([[0.0]]), np.array([3.7]))
        value = log_marginal_likelihood(tr, HyperParams(1.0, [1.0]))
        assert value == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-9)

    def test_product_over_identical_columns(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (4, 1))
        y = rng.normal(0, 1, 4)
        psi = HyperParams(1.2, [0.8])
        single = log_marginal_likelihood(TrainingSet.from_data(X, y), psi)
        double = log_marginal_likelihood(
            TrainingSet.from_data(X, np.column_stack([y, y])), psi)
        assert double == pytest.approx(2.0 * single, rel=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        tr = make_training(rng, 3, 2, 2)
        psi = random_psi(rng, 2)
        value = log_marginal_likelihood(tr, psi)
        C = np.array([[sq_exp_cov(a, b, psi) for b in tr.inputs] for a in tr.inputs])
        C += 1e-10 * psi.sigma_c**2 * np.eye(3)
        dense = 0.0
        for i in range(2):
            y = tr.scaled_outputs[:, i]
            dense += (-0.5 * y @ np.linalg.inv(C) @ y
                      - 0.5 * np.log(np.linalg.det(C))
                      - 1.5 * np.log(2 * np.pi))
        assert value == pytest.approx(dense, rel=1e-8)

    @pytest.mark.parametrize("n_train", [2, 5, 10])
    def test_dense_equivalence_invariant(self, n_train):
        rng = np.random.default_rng(n_train)
        tr = make_training(rng, n_train, 2, 2)
        psi = random_psi(rng, 2)
        value = log_marginal_likelihood(tr, psi)
        C = np.array([[sq_exp_cov(a, b, psi) for b in tr.inputs] for a in tr.inputs])
        C += 1e-10 * psi.sigma_c**2 * np.eye(n_train)
        Cinv, logdet = np.linalg.inv(C), np.log(np.linalg.det(C))
        dense = sum(
            -0.5 * tr.scaled_outputs[:, i] @ Cinv @ tr.scaled_outputs[:, i]
            - 0.5 * logdet - 0.5 * n_train * np.log(2 * np.pi)
            for i in range(tr.n_outputs))
        assert value == pytest.approx(dense, rel=1e-8)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        tr = make_training(rng, 6, 2, 2)
        psis = np.column_stack([rng.uniform(0.5, 2, 8), rng.uniform(0.4, 2, 8), rng.uniform(0.4, 2, 8)])
        batch = _lml_batch(tr, psis)
        for row, value in zip(psis, batch):
            assert value == pytest.approx(
                log_marginal_likelihood(tr, hyperparams_from_vector(row)), rel=1e-12)

    def test_invalid_rows_are_minus_inf(self):
        rng = np.random.default_rng(6)
        tr = make_training(rng, 4, 1, 1)
        batch = _lml_batch(tr, np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, 0.0]]))
        assert np.isfinite(batch[0])
        assert batch[1] == -np.inf
        assert batch[2] == -np.inf


class TestEnsemble:
    def test_training_point_reproduction(self):
        rng = np.random.default_rng(7)
        tr = make_training(rng, 7, 2, 3)
        ens = GpEnsemble(tr, [random_psi(rng, 2).as_vector() for _ in range(5)])
        for j in range(tr.n_train):
            pred = ensemble_predict_vector(ens, tr.inputs[j])
            np.testing.assert_allclose(pred.means, np.tile(tr.raw_outputs[j], (5, 1)), atol=1e-6)
            np.testing.assert_array_less(pred.cov_diags, 1e-6)

    def test_single_member_matches_predict(self):
        rng = np.random.default_rng(8)
        tr = make_training(rng, 5, 1, 2)
        psi = random_psi(rng, 1)
        fit = fit_single(tr, psi)
        ens = GpEnsemble(tr, psi.as_vector())
        theta = np.array([0.37])
        pred = ensemble_predict_vector(ens, theta)
        means_norm, var = predict(fit, theta)
        np.testing.assert_allclose(
            pred.means[0], means_norm * np.sqrt(tr.out_vars) + tr.out_means, rtol=1e-12)
        np.testing.assert_allclose(pred.cov_diags[0], var * tr.out_vars, rtol=1e-10, atol=1e-300)

    def test_mixture_mean_is_average(self):
        rng = np.random.default_rng(9)
        tr = make_training(rng, 6, 2, 2)
        ens = GpEnsemble(tr, [random_psi(rng, 2).as_vector() for _ in range(4)])
        theta = rng.uniform(-2, 2, 2)
        pred = ensemble_predict_vector(ens, theta)
        mean, _ = mixture_moments(pred.means, pred.cov_diags)
        np.testing.assert_allclose(mean, pred.means.mean(axis=0), rtol=1e-12)



def assert_normwise_close(actual, expected, tol=1e-12):
    """Entries agree to tol times the largest entry of the oracle solution.

    A near-singular factor amplifies rounding in the small solution entries,
    so entrywise relative agreement is not what a stable solve promises.
    """
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=tol * np.abs(expected).max())


class TestTriangularSolves:
    @pytest.fixture
    def factors(self):
        """Stack of Cholesky factors; the last one is near-singular.

        Two design rows coincide, so the factorization started at a 1e-20
        shift fails and the jitter ladder escalates until it succeeds.
        """
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, (6, 2))
        X[5] = X[4]
        tr = TrainingSet.from_data(X, rng.normal(0, 1, (6, 1)))
        fits = [fit_single(tr, random_psi(rng, 2)) for _ in range(3)]
        fits.append(fit_single(tr, HyperParams(1.0, [3.0, 3.0]), jitter=1e-20))
        assert fits[-1].jitter > 1e-20
        return np.array([fit.chol for fit in fits]), rng

    def test_forward_matches_solve_triangular(self, factors):
        L, rng = factors
        R = rng.normal(0, 1, (L.shape[0], L.shape[1], 3))
        X = _forward_subst(L, R)
        for Lj, Rj, Xj in zip(L, R, X):
            assert_normwise_close(Xj, solve_triangular(Lj, Rj, lower=True))

    def test_backward_matches_solve_triangular(self, factors):
        L, rng = factors
        R = rng.normal(0, 1, (L.shape[0], L.shape[1], 3))
        X = _back_subst(L, R)
        for Lj, Rj, Xj in zip(L, R, X):
            assert_normwise_close(Xj, solve_triangular(Lj, Rj, lower=True, trans="T"))

    def test_right_hand_side_broadcasts_over_stack(self, factors):
        L, rng = factors
        R = rng.normal(0, 1, (L.shape[1], 2))
        X = _forward_subst(L, R)
        assert X.shape == (L.shape[0],) + R.shape
        for Lj, Xj in zip(L, X):
            assert_normwise_close(Xj, solve_triangular(Lj, R, lower=True))


def test_predict_batch_matches_scalar_predict_per_member():
    rng = np.random.default_rng(14)
    tr = make_training(rng, 9, 2, 3)
    psis = [random_psi(rng, 2) for _ in range(6)]
    fits = [fit_single(tr, psi) for psi in psis]
    thetas = rng.uniform(-2, 2, (7, 2))
    means, variances = GpEnsemble(tr, [psi.as_vector() for psi in psis]).predict_batch(thetas)
    assert means.shape == (7, 6, 3) and variances.shape == (7, 6)
    for b, theta in enumerate(thetas):
        for j, fit in enumerate(fits):
            mean, var = predict(fit, theta)
            np.testing.assert_allclose(means[b, j], mean, rtol=1e-12, atol=1e-14)
            assert variances[b, j] == pytest.approx(var, rel=1e-12, abs=1e-14)


def test_ensemble_members_match_fit_single(monkeypatch):
    """Every member of the factor stack agrees with the one-row reference fit.

    The ladder starts at 1e-20, so the row whose length-scale of 1e100 makes
    the covariance singular escalates while the others factorize at once.
    """
    rng = np.random.default_rng(13)
    X = rng.uniform(-1, 1, (6, 2))
    X[1] = X[0] + np.array([0.0, 0.5])
    tr = TrainingSet.from_data(X, rng.normal(0, 1, (6, 2)))
    psis = [random_psi(rng, 2) for _ in range(3)] + [HyperParams(1.0, [0.5, 1e100])]
    monkeypatch.setattr(gpinv.gp, "BASE_JITTER", 1e-20)
    ens = GpEnsemble(tr, [psi.as_vector() for psi in psis])
    fits = [fit_single(tr, psi, jitter=1e-20) for psi in psis]
    assert fits[0].jitter == 1e-20 * psis[0].sigma_c**2 and fits[-1].jitter > 1e-20
    for L, weights, fit in zip(ens._L, ens._weights, fits):
        assert_normwise_close(L, fit.chol)
        assert_normwise_close(weights, fit.weights)


class TestMixtureMoments:
    def test_single_component_identity(self):
        mean, var = mixture_moments(np.array([1.7]), np.array([0.3]))
        assert (mean, var) == (pytest.approx(1.7), pytest.approx(0.3))

    def test_pure_between_component_spread(self):
        mean, var = mixture_moments(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
        assert mean == pytest.approx(0.0)
        assert var == pytest.approx(1.0)

    def test_three_components(self):
        mean, var = mixture_moments(np.array([1.0, 3.0, 5.0]), np.full(3, 0.5))
        assert mean == pytest.approx(3.0)
        assert var == pytest.approx(0.5 + 8.0 / 3.0)

    def test_vector_case_outer_product_form(self):
        rng = np.random.default_rng(11)
        means = rng.normal(0, 1, (6, 3))
        variances = rng.uniform(0.1, 1, (6, 3))
        mean, cov = mixture_moments(means, variances)
        # moment oracle by mixture sampling identity: E[x x^T] - mu mu^T
        expected = np.diag(variances.mean(axis=0)) + means.T @ means / 6 - np.outer(mean, mean)
        np.testing.assert_allclose(cov, expected, rtol=1e-10)
        np.testing.assert_allclose(mean, means.mean(axis=0), rtol=1e-12)


def test_normalization_round_trip_at_training_inputs():
    rng = np.random.default_rng(12)
    tr = make_training(rng, 9, 2, 4)
    ens = GpEnsemble(tr, [random_psi(rng, 2).as_vector() for _ in range(3)])
    for j in range(tr.n_train):
        pred = ensemble_predict_vector(ens, tr.inputs[j])
        np.testing.assert_allclose(pred.means, np.tile(tr.raw_outputs[j], (3, 1)), atol=1e-7)


def test_training_set_rejects_duplicate_augment():
    tr = TrainingSet.from_data(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="duplicate"):
        tr.augmented(np.array([1.0]), np.array([3.0]))
