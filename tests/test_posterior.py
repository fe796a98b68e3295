import numpy as np
import pytest
from scipy.stats import kstest, norm

from gpinv.mcmc import BoxPrior, run_chain
from gpinv.posterior import (
    GRID_POINTS,
    POOL_FACTOR,
    PosteriorSampleSet,
    grid_hellinger,
    grid_points,
    hpd_region,
    sample_posterior,
    shortest_interval,
)


def flat(points):
    return np.zeros(np.atleast_2d(points).shape[0])


class TestSamplePosterior:
    def test_flat_target_recovers_prior(self):
        prior = BoxPrior([0.0, -2.0], [1.0, 2.0])
        result = sample_posterior(flat, prior, n_samples=20_000, seed=0, n_walkers=100, source="flat")
        assert result.n_samples == 20_000
        assert np.all(prior.contains(result.samples))
        # Draws within a walker are autocorrelated (a few sweeps), which a
        # plain KS test does not tolerate; thin to one sweep in ten so the
        # subset is effectively independent before testing uniformity.
        n_walkers = result.metadata["n_walkers"]
        sweeps = result.samples.reshape(-1, n_walkers, prior.dim)
        thinned = sweeps[::10].reshape(-1, prior.dim)
        for j, (lo, hi) in enumerate(zip(prior.lower, prior.upper)):
            u = (thinned[:, j] - lo) / (hi - lo)
            assert kstest(u, "uniform").pvalue > 0.01
        np.testing.assert_allclose(result.samples.mean(axis=0),
                                   (prior.lower + prior.upper) / 2, atol=0.05)

    def test_sample_count_and_metadata(self):
        prior = BoxPrior([0.0], [1.0])
        result = sample_posterior(flat, prior, n_samples=1234, seed=1, n_walkers=10, source="flat")
        assert result.samples.shape == (1234, 1)
        assert result.metadata["n_walkers"] == 10
        assert result.metadata["burn_in_steps"] == result.metadata["kept_steps"]

    def test_gaussian_target_moments(self):
        prior = BoxPrior([-10.0], [10.0])

        def loglik(points):
            return -0.5 * np.atleast_2d(points)[:, 0] ** 2

        result = sample_posterior(loglik, prior, n_samples=20_000, seed=2, n_walkers=100, source="gaussian")
        assert abs(result.samples.mean()) < 0.05
        assert abs(result.samples.std() - 1.0) < 0.05

    def test_determinism(self):
        prior = BoxPrior([0.0], [1.0])
        a = sample_posterior(flat, prior, n_samples=500, seed=3, n_walkers=100, source="flat")
        b = sample_posterior(flat, prior, n_samples=500, seed=3, n_walkers=100, source="flat")
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_keeps_the_sweeps_after_the_burn_in(self):
        """With k = ceil(n / walkers) the samples are the walkers after sweeps
        k+1..2k of the chain from the seeded start pool, and the recorded
        acceptance rate is the chain's rate after sweep 2k."""
        prior = BoxPrior([-3.0, -3.0], [3.0, 3.0])

        def loglik(points):
            return -0.5 * np.sum(np.atleast_2d(points) ** 2, axis=1)

        n_samples, n_walkers, seed, k = 95, 10, 5, 10
        result = sample_posterior(loglik, prior, n_samples, seed=seed, n_walkers=n_walkers,
                                  source="gaussian")
        pool = prior.sample(np.random.default_rng(np.random.SeedSequence([seed, 0x9001])),
                            POOL_FACTOR * n_walkers)
        chain = run_chain(loglik, prior, n_walkers, seed, init_positions=pool)
        sweeps = [(positions.copy(), rate) for _, (positions, rate) in zip(range(2 * k), chain)]
        kept = np.concatenate([positions for positions, _ in sweeps[k:]])[:n_samples]
        np.testing.assert_array_equal(result.samples, kept)
        assert result.metadata["acceptance_rate"] == sweeps[-1][1]
        assert 0.0 < sweeps[-1][1] < 1.0

    def test_pool_is_scored_once(self):
        """The first density call scores the whole start pool; the next one is
        already a half-sweep's proposals, not a second scoring of the walkers."""
        rows = []

        def counted(points):
            rows.append(len(points))
            return flat(points)

        sample_posterior(counted, BoxPrior([0.0, 0.0], [1.0, 1.0]), n_samples=40, seed=4,
                         n_walkers=10, source="flat")
        assert rows[0] == POOL_FACTOR * 10
        assert 0 < rows[1] <= 5

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            sample_posterior(flat, BoxPrior([0.0], [1.0]), n_samples=0, seed=0, n_walkers=100,
                             source="flat")

    @pytest.mark.parametrize("n_walkers", [0, -2, 3])
    def test_invalid_walkers(self, n_walkers):
        with pytest.raises(ValueError, match="n_walkers must be even"):
            sample_posterior(flat, BoxPrior([0.0], [1.0]), n_samples=10, seed=0,
                             n_walkers=n_walkers, source="flat")


class TestShortestInterval:
    def test_uniform_interval_length(self):
        rng = np.random.default_rng(4)
        lo, hi = shortest_interval(rng.random(50_000), 0.95)
        assert hi - lo == pytest.approx(0.95, abs=0.02)

    def test_point_mass(self):
        lo, hi = shortest_interval(np.full(200, 3.0), 0.95)
        assert lo == hi == 3.0


class TestHpdRegion:
    def test_standard_normal_quantiles(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(0, 1, (50_000, 1))
        summary = hpd_region(samples, alpha=0.05)
        assert summary.lower[0] == pytest.approx(-1.96, abs=0.08)
        assert summary.upper[0] == pytest.approx(1.96, abs=0.08)

    def test_per_dimension_coverage(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(0, 1, (20_000, 3)) * np.array([1.0, 2.0, 0.5])
        summary = hpd_region(samples, alpha=0.05)
        for j in range(3):
            inside = ((samples[:, j] >= summary.lower[j])
                      & (samples[:, j] <= summary.upper[j])).mean()
            assert 0.93 <= inside <= 1.0

    def test_matches_known_skewed_quantiles(self):
        # Exponential distribution: the shortest 95% interval starts at 0.
        rng = np.random.default_rng(7)
        samples = rng.exponential(1.0, (100_000, 1))
        summary = hpd_region(samples, alpha=0.05)
        assert summary.lower[0] < 0.01
        assert summary.upper[0] == pytest.approx(-np.log(0.05), abs=0.15)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError, match="100"):
            hpd_region(np.random.default_rng(0).random((50, 1)), 0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        samples = np.random.default_rng(2).random((200, 2))
        samples[17, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            hpd_region(samples, 0.05)

    def test_one_d_vector_is_one_column(self):
        values = np.random.default_rng(10).normal(size=5_000)
        flat, column = hpd_region(values, 0.05), hpd_region(values[:, None], 0.05)
        np.testing.assert_array_equal(flat.lower, column.lower)
        np.testing.assert_array_equal(flat.upper, column.upper)

    def test_alpha_validation(self):
        samples = np.random.default_rng(1).random((500, 1))
        with pytest.raises(ValueError):
            hpd_region(samples, alpha=0.0)

    def test_accepts_sample_set(self):
        rng = np.random.default_rng(8)
        ps = PosteriorSampleSet(rng.normal(0, 1, (5_000, 2)), source="test")
        summary = hpd_region(ps, alpha=0.1)
        lo, hi = norm.ppf(0.05), norm.ppf(0.95)
        np.testing.assert_allclose(summary.lower, lo, atol=0.15)
        np.testing.assert_allclose(summary.upper, hi, atol=0.15)

    def test_contains(self):
        summary = hpd_region(np.random.default_rng(9).random((1_000, 2)), 0.05)
        assert summary.contains(np.array([[0.5, 0.5]]))[0]
        assert not summary.contains(np.array([[5.0, 0.5]]))[0]


class TestGridHellinger:
    def test_grid_holds_cell_centres(self):
        square = grid_points(BoxPrior([0.0, -1.0], [1.0, 1.0]))
        assert square.shape == (101**2, 2)
        np.testing.assert_allclose(np.unique(square[:, 0]), (np.arange(101) + 0.5) / 101)
        np.testing.assert_allclose(np.unique(square[:, 1]), -1.0 + 2.0 * (np.arange(101) + 0.5) / 101)
        line = grid_points(BoxPrior([-6.0], [6.0]))
        assert line.shape == (GRID_POINTS, 1)
        assert line[0, 0] == pytest.approx(-6.0 + 6.0 / GRID_POINTS)

    def test_identical_densities_are_at_zero(self):
        log_p = -0.5 * grid_points(BoxPrior([-5.0], [5.0]))[:, 0] ** 2
        assert grid_hellinger(log_p, log_p) == pytest.approx(0.0, abs=1e-7)
        assert grid_hellinger(log_p, log_p + 300.0) == pytest.approx(0.0, abs=1e-7)

    def test_symmetric(self):
        x = grid_points(BoxPrior([-5.0], [5.0]))[:, 0]
        log_p, log_q = -0.5 * x**2, -np.abs(x - 1.0)
        assert grid_hellinger(log_p, log_q) == grid_hellinger(log_q, log_p)

    def test_disjoint_densities_are_near_one(self):
        x = grid_points(BoxPrior([-5.0], [5.0]))[:, 0]
        far_apart = grid_hellinger(-0.5 * ((x + 3.0) / 0.1) ** 2, -0.5 * ((x - 3.0) / 0.1) ** 2)
        assert far_apart == pytest.approx(1.0, abs=1e-12)

    def test_matches_gaussian_closed_form(self):
        x = grid_points(BoxPrior([-30.0], [30.0]))[:, 0]
        (m1, s1), (m2, s2) = (0.0, 1.0), (1.5, 2.0)
        closed = 1.0 - np.sqrt(2.0 * s1 * s2 / (s1**2 + s2**2)) * np.exp(
            -((m1 - m2) ** 2) / (4.0 * (s1**2 + s2**2)))
        log_p = norm.logpdf(x, m1, s1)
        log_q = norm.logpdf(x, m2, s2)
        assert grid_hellinger(log_p, log_q) == pytest.approx(np.sqrt(closed), rel=1e-9)
