import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from gpinv import likelihood
from gpinv.experiments import true_loglik_rows
from gpinv.forward_models import Rational1D
from gpinv.gp import GpEnsemble, HyperParams, TrainingSet, fit_single
from gpinv.likelihood import (
    DENSITY_BLOCK,
    MeasurementModel,
    d_restricted_loglik_batch,
    member_misfits,
    misfit_of_outputs,
)
from oracles import (
    d_restricted_loglik,
    ensemble_predict_vector,
    gp_misfits,
    hyperparams_from_vector,
    predict,
    true_loglik,
    true_misfit,
)


def gp_misfit(mean: np.ndarray, cov_diag: np.ndarray, meas: MeasurementModel) -> float:
    """Surrogate misfit for one ensemble member's prediction at a point.

    `mean` and `cov_diag` are that member's raw-scale predictive mean vector
    and covariance diagonal (for example one row of an
    :func:`gpinv.gp.ensemble_predict_vector` result).
    """
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov_diag = np.asarray(cov_diag, dtype=float).reshape(-1)
    return float(np.sum((meas.z - mean) ** 2 / (meas.noise_vars + cov_diag)))


def gp_misfit_dense(mean: np.ndarray, cov: np.ndarray, noise_cov: np.ndarray, z: np.ndarray) -> float:
    """Reference quadratic form (z-m)^T (Sigma_E + Sigma_GP)^-1 (z-m).

    Slow dense-covariance variant kept for validating the diagonal fast path.
    """
    resid = np.asarray(z, dtype=float) - np.asarray(mean, dtype=float)
    total = np.asarray(noise_cov, dtype=float) + np.asarray(cov, dtype=float)
    return float(resid @ np.linalg.solve(total, resid))


def raw_scale_misfits(means_norm, var_norm, tr, meas):
    """Reference member misfits and Gaussian log-normalizers on the raw output scale."""
    means = means_norm * np.sqrt(tr.out_vars) + tr.out_means
    denom = meas.noise_vars + var_norm[..., None] * tr.out_vars
    g = np.sum((meas.z - means) ** 2 / denom, axis=-1)
    log_k = -0.5 * np.sum(np.log(2.0 * np.pi * denom), axis=-1)
    return g, log_k


def raw_scale_d_restricted(thetas, ens, meas):
    """Reference mixture log-likelihood built from the raw-scale misfits."""
    means, variances = ens.predict_batch(thetas)
    g, log_k = raw_scale_misfits(means.transpose(2, 0, 1), variances.T, ens.training, meas)
    g_star = np.min(g, axis=1)
    body = logsumexp(log_k - 0.5 * (g - g_star[:, None]), axis=1)
    return -0.5 * g_star + body - np.log(g.shape[1])


class Lookup:
    """Forward model stand-in returning a fixed output vector."""

    def __init__(self, outputs):
        self.outputs = np.asarray(outputs, dtype=float)

    def evaluate(self, theta):
        return self.outputs


def small_ensemble(seed=0, n=6, p=2, q=2, n_psi=5):
    rng = np.random.default_rng(seed)
    tr = TrainingSet.from_data(rng.uniform(-1, 1, (n, p)), rng.normal(0, 1, (n, q)))
    psis = [HyperParams(rng.uniform(0.5, 2), rng.uniform(0.3, 1.5, p)).as_vector()
            for _ in range(n_psi)]
    return GpEnsemble(tr, psis), rng


LOGSUMEXP_CASES = {
    "normal": np.random.default_rng(3).normal(0.0, 30.0, (7, 5)),
    "-inf entries": np.array([[0.0, -np.inf, 2.5], [-np.inf, -np.inf, 1.0], [-3.0, 4.0, -np.inf]]),
    "-inf column": np.array([[1.0, -np.inf], [2.0, -np.inf], [-1.0, -np.inf]]),  # axis 0: -inf
    "near 1e300": np.array([[1e300, 1e300 * (1 - 1e-15)], [-1e300, 0.0], [9e299, -9e299]]),
}


class TestLogsumexp:
    """The library's max-shifted logsumexp against scipy.special.logsumexp."""

    @pytest.mark.parametrize("axis", [None, 0, 1])
    @pytest.mark.parametrize("case", sorted(LOGSUMEXP_CASES))
    def test_matches_scipy(self, case, axis):
        a = LOGSUMEXP_CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = likelihood.logsumexp(a, axis=axis)
        expected = logsumexp(a, axis=axis)
        assert np.shape(got) == np.shape(expected)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)


class TestMeasurementModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementModel([1.0], [0.0])
        with pytest.raises(ValueError):
            MeasurementModel([1.0, 2.0], [0.1])


class TestTrueMisfit:
    def test_perfect_fit_is_zero(self):
        meas = MeasurementModel([1.0, 2.0], [0.5, 0.5])
        assert true_misfit(None, Lookup([1.0, 2.0]), meas) == 0.0

    def test_direct_substitution(self):
        meas = MeasurementModel([1.0], [0.25])
        assert true_misfit(None, Lookup([0.0]), meas) == pytest.approx(4.0)


class TestGpMisfit:
    def test_interpolates_true_misfit_at_training_inputs(self):
        ens, rng = small_ensemble(seed=1)
        tr = ens.training
        meas = MeasurementModel(rng.normal(0, 1, tr.n_outputs), np.full(tr.n_outputs, 0.09))
        for j in range(tr.n_train):
            truth = misfit_of_outputs(tr.raw_outputs[j], meas)
            for g in gp_misfits(tr.inputs[j], ens, meas):
                assert g == pytest.approx(truth, abs=1e-6)

    def test_zero_variance_reduces_to_weighted_lsq(self):
        meas = MeasurementModel([1.0, -1.0], [0.5, 2.0])
        mean = np.array([0.5, 0.0])
        assert gp_misfit(mean, np.zeros(2), meas) == pytest.approx(
            0.25 / 0.5 + 1.0 / 2.0)

    def test_synthetic_hand_value(self):
        meas = MeasurementModel([1.0, 1.0], [1.0, 1.0])
        assert gp_misfit(np.zeros(2), np.ones(2), meas) == pytest.approx(1.0)

    def test_monotone_in_surrogate_variance(self):
        meas = MeasurementModel([1.0], [0.5])
        values = [gp_misfit(np.array([0.0]), np.array([v]), meas) for v in (0.0, 0.5, 1.0, 5.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dense_reference_agrees_with_diagonal_path(self):
        ens, rng = small_ensemble(seed=2)
        tr = ens.training
        meas = MeasurementModel(rng.normal(0, 1, tr.n_outputs), np.full(tr.n_outputs, 0.2))
        theta = rng.uniform(-1, 1, tr.input_dim)
        pred = ensemble_predict_vector(ens, theta)
        for j in range(len(ens.hyperparams)):
            fast = gp_misfit(pred.means[j], pred.cov_diags[j], meas)
            dense = gp_misfit_dense(pred.means[j], np.diag(pred.cov_diags[j]),
                                    np.diag(meas.noise_vars), meas.z)
            assert fast == pytest.approx(dense, rel=1e-10)


class TestMemberMisfitKernel:
    def test_matches_raw_scale_oracle(self):
        ens, rng = small_ensemble(seed=8, n=7, q=3, n_psi=6)
        tr = ens.training
        meas = MeasurementModel(rng.normal(0, 1, tr.n_outputs), rng.uniform(0.05, 0.5, tr.n_outputs))
        means, variances = ens.predict_batch(rng.uniform(-1, 1, (9, tr.input_dim)))
        expected, _ = raw_scale_misfits(means.transpose(2, 0, 1), variances.T, tr, meas)
        # The ensemble's outputs-major means and the same values C-contiguous
        # (J, q, B), whose output planes are strided: one kernel for both.
        rows_last = np.ascontiguousarray(means)
        assert not means.flags.c_contiguous and rows_last.flags.c_contiguous
        g = member_misfits(means, variances, tr, meas)[0]
        assert g.shape == (6, 9)
        np.testing.assert_allclose(g.T, expected, rtol=1e-12)
        np.testing.assert_array_equal(member_misfits(rows_last, variances, tr, meas)[0], g)

    @pytest.mark.parametrize("n_meas", [1, 2])
    def test_measurement_with_other_output_count_rejected(self, n_meas):
        ens, rng = small_ensemble(seed=12, n=7, q=3, n_psi=6)
        meas = MeasurementModel(rng.normal(0, 1, n_meas), np.full(n_meas, 0.1))
        thetas = rng.uniform(-1, 1, (4, ens.training.input_dim))
        message = f"measurement has {n_meas} outputs but the emulator predicts 3"
        with pytest.raises(ValueError, match=message):
            d_restricted_loglik_batch(thetas, ens, meas)
        with pytest.raises(ValueError, match=message):
            member_misfits(*ens.predict_batch(thetas), ens.training, meas)

    def test_density_block_allocates_one_means_array(self):
        # At the heat protocol's scale one block's means take 2.75 MiB and its
        # cross-covariances 1.83 MiB; a kernel that builds (J, q, B) residual,
        # denominator or term arrays besides the means peaks above the bound.
        ens, rng = small_ensemble(seed=13, n=12, q=18, n_psi=200)
        meas = MeasurementModel(rng.normal(0, 1, 18), np.full(18, 0.1))
        thetas = rng.uniform(-1, 1, (DENSITY_BLOCK, ens.training.input_dim))
        d_restricted_loglik_batch(thetas, ens, meas)
        tracemalloc.start()
        try:
            d_restricted_loglik_batch(thetas, ens, meas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * 2**20

    def test_density_block_allocates_no_third_covariance_array(self):
        # The cross-covariances c (1.83 MiB here) are overwritten by L^-1 c in
        # place, so c and the means (2.75 MiB) are the only large arrays; a
        # separate L^-1 c buffer adds another 1.83 MiB and exceeds the bound.
        ens, rng = small_ensemble(seed=13, n=12, q=18, n_psi=200)
        meas = MeasurementModel(rng.normal(0, 1, 18), np.full(18, 0.1))
        thetas = rng.uniform(-1, 1, (DENSITY_BLOCK, ens.training.input_dim))
        d_restricted_loglik_batch(thetas, ens, meas)
        tracemalloc.start()
        try:
            d_restricted_loglik_batch(thetas, ens, meas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * 2**20

    def test_d_restricted_batch_matches_raw_scale_oracle(self):
        ens, rng = small_ensemble(seed=9, n=7, q=3, n_psi=6)
        tr = ens.training
        meas = MeasurementModel(rng.normal(0, 1, tr.n_outputs), rng.uniform(0.05, 0.5, tr.n_outputs))
        thetas = np.vstack([rng.uniform(-1, 1, (9, tr.input_dim)), tr.inputs[:2]])
        np.testing.assert_allclose(d_restricted_loglik_batch(thetas, ens, meas),
                                   raw_scale_d_restricted(thetas, ens, meas), rtol=1e-12)

    def test_d_restricted_batch_blocks_match_single_rows(self):
        ens, rng = small_ensemble(seed=10, n=7, q=3, n_psi=6)
        tr = ens.training
        meas = MeasurementModel(rng.normal(0, 1, tr.n_outputs), rng.uniform(0.05, 0.5, tr.n_outputs))
        thetas = rng.uniform(-1, 1, (250, tr.input_dim))
        single = [d_restricted_loglik(theta, ens, meas) for theta in thetas]
        np.testing.assert_allclose(d_restricted_loglik_batch(thetas, ens, meas), single, rtol=1e-12)

    def test_d_restricted_batch_matches_scalar_predictions_across_blocks(self):
        # Row by row through the one-member fit/predict path, which shares no
        # layout with the batched rows-last kernels; 250 rows cross two block ends.
        ens, rng = small_ensemble(seed=11, n=7, q=3, n_psi=6)
        tr = ens.training
        meas = MeasurementModel(rng.normal(0, 1, tr.n_outputs), rng.uniform(0.05, 0.5, tr.n_outputs))
        thetas = rng.uniform(-1, 1, (250, tr.input_dim))
        fits = [fit_single(tr, hyperparams_from_vector(row)) for row in ens.hyperparams]
        expected = []
        for theta in thetas:
            preds = [predict(fit, theta) for fit in fits]
            means = np.array([m for m, _ in preds])[None]          # (1, J, q)
            variances = np.array([v for _, v in preds])[None]      # (1, J)
            g, log_k = raw_scale_misfits(means, variances, tr, meas)
            expected.append(logsumexp(log_k - 0.5 * g) - np.log(len(fits)))
        assert thetas.shape[0] > 2 * DENSITY_BLOCK
        np.testing.assert_allclose(d_restricted_loglik_batch(thetas, ens, meas), expected, rtol=1e-12)


class TestTrueLoglik:
    def test_exact_standard_normal(self):
        meas = MeasurementModel([1.0], [1.0])
        assert true_loglik(None, Lookup([1.0]), meas) == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_additivity_over_outputs(self):
        m1 = MeasurementModel([1.0], [0.3])
        m2 = MeasurementModel([2.0], [0.7])
        joint = MeasurementModel([1.0, 2.0], [0.3, 0.7])
        split = (true_loglik(None, Lookup([0.5]), m1) + true_loglik(None, Lookup([1.5]), m2))
        assert true_loglik(None, Lookup([0.5, 1.5]), joint) == pytest.approx(split)

    def test_matches_gaussian_density_oracle(self):
        rng = np.random.default_rng(3)
        z = rng.normal(0, 1, 4)
        f = rng.normal(0, 1, 4)
        noise = rng.uniform(0.1, 2.0, 4)
        meas = MeasurementModel(z, noise)
        expected = multivariate_normal(mean=f, cov=np.diag(noise)).logpdf(z)
        assert true_loglik(None, Lookup(f), meas) == pytest.approx(expected, rel=1e-12)

    def test_rows_match_the_oracle(self):
        model = Rational1D()
        meas = MeasurementModel([0.3], [0.05])
        thetas = np.linspace(-6.0, 6.0, 7)[:, None]
        rows = true_loglik_rows(model, meas)(thetas)
        np.testing.assert_array_equal(rows, [true_loglik(theta, model, meas) for theta in thetas])
        assert model.n_evals == 2 * len(thetas)


class TestDRestrictedLoglik:
    def test_single_member_zero_variance_equals_true_loglik(self):
        # Predictions at a training input carry zero variance, so the mixture
        # collapses onto the plain Gaussian log-likelihood at the GP mean.
        ens, rng = small_ensemble(seed=4, n_psi=1)
        tr = ens.training
        meas = MeasurementModel(rng.normal(0, 1, tr.n_outputs), np.full(tr.n_outputs, 0.35))
        theta = tr.inputs[0]
        value = d_restricted_loglik(theta, ens, meas)
        expected = true_loglik(None, Lookup(tr.raw_outputs[0]), meas)
        assert value == pytest.approx(expected, abs=1e-6)

    def test_huge_misfits_stay_finite(self):
        ens, _ = small_ensemble(seed=5)
        tr = ens.training
        # data absurdly far away: every misfit is astronomically large
        meas = MeasurementModel(np.full(tr.n_outputs, 1e3), np.full(tr.n_outputs, 1.0))
        value = d_restricted_loglik(np.zeros(tr.input_dim), ens, meas)
        assert np.isfinite(value)
        assert value < -1e5

    def test_logsumexp_matches_naive_when_safe(self):
        ens, rng = small_ensemble(seed=6, n_psi=8)
        tr = ens.training
        meas = MeasurementModel(rng.normal(0, 1, tr.n_outputs), np.full(tr.n_outputs, 2.0))
        theta = rng.uniform(-1, 1, tr.input_dim)
        pred = ensemble_predict_vector(ens, theta)
        g = np.array([gp_misfit(pred.means[j], pred.cov_diags[j], meas)
                      for j in range(len(ens.hyperparams))])
        assert g.max() - g.min() < 30.0
        k = np.array([
            np.prod(1.0 / np.sqrt(2 * np.pi * (meas.noise_vars + pred.cov_diags[j])))
            for j in range(len(ens.hyperparams))])
        naive = np.log(np.sum(k / len(ens.hyperparams) * np.exp(-0.5 * g)))
        assert d_restricted_loglik(theta, ens, meas) == pytest.approx(naive, rel=1e-12)

    def test_monte_carlo_oracle_single_instance(self):
        ens, rng = small_ensemble(seed=7, q=2, n_psi=10)
        tr = ens.training
        theta = rng.uniform(-1, 1, tr.input_dim)
        pred = ensemble_predict_vector(ens, theta)
        meas = MeasurementModel(pred.means.mean(axis=0) + 0.3, np.full(tr.n_outputs, 0.4))
        value = np.exp(d_restricted_loglik(theta, ens, meas))
        draws = 1_000_000
        comp = rng.integers(0, len(ens.hyperparams), draws)
        f = pred.means[comp] + rng.normal(size=(draws, tr.n_outputs)) * np.sqrt(pred.cov_diags[comp])
        dens = np.prod(
            np.exp(-0.5 * (meas.z - f) ** 2 / meas.noise_vars)
            / np.sqrt(2 * np.pi * meas.noise_vars), axis=1)
        assert value == pytest.approx(dens.mean(), rel=0.02)
