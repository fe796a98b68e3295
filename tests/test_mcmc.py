import copy
import logging

import numpy as np
import pytest
from scipy.stats import kstest

import gpinv.gp
import gpinv.mcmc
from gpinv.errors import InitializationError
from gpinv.gp import TrainingSet
from gpinv.mcmc import (
    SETTLE_EVERY,
    STRETCH_A,
    BoxPrior,
    WalkerEnsemble,
    run_chain,
    sample_hyperposterior,
    stretch_step,
)
from oracles import run_sampler, vectorize_rows


def flat(points):
    return np.zeros(np.atleast_2d(points).shape[0])


def gaussian(points):
    return -0.5 * np.sum(np.atleast_2d(points) ** 2, axis=1)


def unit_box(d):
    return BoxPrior(np.zeros(d), np.ones(d))


def replay_flat_sweep(ens, box):
    """Replay one stretch_step sweep on a flat target over `box` from a copy of ens.rng.

    Per half, stretch_step draws the partner indices, the stretch factors and
    the acceptance uniforms, in that order, and a proposal outside the box is
    never taken. Returns the positions the sweep must end at and, per half,
    (active, partners, z, proposals).
    """
    rng = copy.deepcopy(ens.rng)
    positions = ens.positions.copy()
    n, d = positions.shape
    half = n // 2
    draws = []
    for active, frozen in ((np.arange(0, half), np.arange(half, n)),
                           (np.arange(half, n), np.arange(0, half))):
        partners = frozen[rng.integers(0, frozen.size, size=active.size)]
        z = ((STRETCH_A - 1.0) * rng.random(active.size) + 1.0) ** 2 / STRETCH_A
        with np.errstate(divide="ignore"):
            take = np.log(rng.random(active.size)) < (d - 1) * np.log(z)
        anchor = positions[partners]
        proposals = anchor + z[:, None] * (positions[active] - anchor)
        take &= box.contains(proposals)
        positions[active[take]] = proposals[take]
        draws.append((active, partners, z, proposals))
    return positions, draws


def replayed_step(ens):
    """Run stretch_step on a flat target over the unit box, where the walkers
    start; return its replayed per-half draws.

    The sweep's positions must match the replay exactly, so the draws are the
    ones the sampler used.
    """
    box = unit_box(ens.positions.shape[1])
    expected, draws = replay_flat_sweep(ens, box)
    stretch_step(ens, flat, box)
    np.testing.assert_array_equal(ens.positions, expected)
    return draws


class TestBoxPrior:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoxPrior([0.0, 0.0], [1.0])
        with pytest.raises(ValueError):
            BoxPrior([1.0], [1.0])

    def test_contains_and_sample(self):
        prior = BoxPrior([-1.0, 0.0], [1.0, 2.0])
        rng = np.random.default_rng(0)
        pts = prior.sample(rng, 1000)
        assert np.all(prior.contains(pts))
        assert not prior.contains(np.array([[2.0, 1.0]]))[0]


class TestBoxCheck:
    def test_rows_outside_are_not_evaluated(self):
        # Walkers fill the box, so some stretches leave it; only the proposals
        # inside reach the density, one call per half.
        box = unit_box(2)
        ens = WalkerEnsemble(np.random.default_rng(15).random((20, 2)), np.zeros(20),
                             np.random.default_rng(16))
        expected, draws = replay_flat_sweep(ens, box)
        calls = []

        def recording(points):
            calls.append(points.copy())
            return flat(points)

        stretch_step(ens, recording, box)
        assert len(calls) == 2
        for call, (_, _, _, proposals) in zip(calls, draws):
            inside = box.contains(proposals)
            assert 0 < inside.sum() < inside.size
            np.testing.assert_array_equal(call, proposals[inside])
        np.testing.assert_array_equal(ens.positions, expected)

    def test_no_call_when_every_proposal_is_outside(self):
        calls = []
        positions = 2.0 + np.random.default_rng(16).random((10, 1))
        ens = WalkerEnsemble(positions.copy(), np.zeros(10), np.random.default_rng(17))
        assert stretch_step(ens, lambda points: calls.append(points) or flat(points), unit_box(1)) == 0
        assert not calls
        np.testing.assert_array_equal(ens.positions, positions)


class TestStretchStep:
    def test_z_draw_distribution(self):
        # Collect the stretch factors actually used by the sampler by
        # replaying its generator, then compare against the analytic CDF of
        # g(z) ~ 1/sqrt(z).
        a = STRETCH_A
        zs = []
        ens = WalkerEnsemble(
            positions=np.random.default_rng(0).random((2000, 1)),
            log_probs=np.zeros(2000),
            rng=np.random.default_rng(1),
        )
        while sum(len(z) for z in zs) < 1_000_000:
            zs.extend(z for _, _, z, _ in replayed_step(ens))
        draws = np.concatenate(zs)[:1_000_000]
        cdf = lambda z: (np.sqrt(z * a) - 1.0) / (a - 1.0)
        stat = kstest(draws, cdf).statistic
        assert stat < 0.002

    def test_flat_target_stays_inside_box(self):
        prior = BoxPrior([0.0, 0.0], [1.0, 1.0])
        samples = run_sampler(flat, prior, n_walkers=50, n_steps=100, seed=2)
        assert np.all(prior.contains(samples))

    def test_zero_density_proposals_never_accepted(self):
        # Support is the left half of the box; walkers start inside it and
        # every proposal beyond 0.5 has -inf log-probability.
        prior = BoxPrior([0.0], [1.0])

        def half(points):
            points = np.atleast_2d(points)
            return np.where(points[:, 0] <= 0.5, 0.0, -np.inf)

        init = np.linspace(0.01, 0.49, 20)[:, None]
        chain = run_chain(half, prior, 20, seed=3, init_positions=init)
        for _, (positions, _) in zip(range(200), chain):
            assert np.all(positions[:, 0] <= 0.5)

    def test_odd_walker_count_rejected(self):
        ens = WalkerEnsemble(np.zeros((3, 1)), np.zeros(3), np.random.default_rng(0))
        with pytest.raises(ValueError, match="even"):
            stretch_step(ens, flat, unit_box(1))

    def test_nan_logprob_warns_and_rejects(self, caplog):
        def nan_target(points):
            return np.full(np.atleast_2d(points).shape[0], np.nan)

        positions = np.random.default_rng(4).random((10, 1))
        ens = WalkerEnsemble(positions.copy(), np.zeros(10), np.random.default_rng(5))
        with caplog.at_level(logging.WARNING):
            accepted = stretch_step(ens, nan_target, unit_box(1))
        assert accepted == 0
        np.testing.assert_array_equal(ens.positions, positions)
        assert "NaN" in caplog.text

    def test_half_ensemble_pairing(self):
        # Partners must come from the frozen complementary half; replayed_step
        # ties the replayed pairing to the positions the sweep produced.
        ens = WalkerEnsemble(
            positions=np.random.default_rng(6).random((40, 2)),
            log_probs=np.zeros(40),
            rng=np.random.default_rng(7),
        )
        seen = [(h, act, par) for h, (act, par, _, _) in enumerate(replayed_step(ens))]
        assert len(seen) == 2
        first, second = seen
        assert np.all(first[1] < 20) and np.all(first[2] >= 20)
        assert np.all(second[1] >= 20) and np.all(second[2] < 20)


class TestRunSampler:
    def test_gaussian_calibration(self):
        prior = BoxPrior([-10.0, -10.0], [10.0, 10.0])
        samples = run_sampler(gaussian, prior, n_walkers=200, n_steps=400, seed=3)
        assert np.abs(samples.mean(axis=0)).max() < 0.1
        assert np.abs(samples.var(axis=0) - 1.0).max() < 0.15

    def test_sharp_gaussian_concentration(self):
        prior = BoxPrior([0.0], [1.0])

        def sharp(points):
            return -0.5 * ((np.atleast_2d(points)[:, 0] - 0.5) / 1e-3) ** 2

        samples = run_sampler(sharp, prior, n_walkers=100, n_steps=400, seed=4)
        assert np.all(np.abs(samples - 0.5) < 0.01)

    def test_seed_determinism(self):
        prior = BoxPrior([-5.0], [5.0])
        s1 = run_sampler(gaussian, prior, n_walkers=30, n_steps=50, seed=11)
        s2 = run_sampler(gaussian, prior, n_walkers=30, n_steps=50, seed=11)
        np.testing.assert_array_equal(s1, s2)

    def test_affine_invariance_bit_exact(self):
        # Power-of-two scaling keeps every floating-point operation exact, so
        # the transformed chain must match the transformed original bit for bit.
        scale = np.array([2.0, 0.25])
        prior = BoxPrior([-8.0, -8.0], [8.0, 8.0])
        prior_scaled = BoxPrior(prior.lower * scale, prior.upper * scale)
        init = np.random.default_rng(8).uniform(-2, 2, (40, 2))

        def target_scaled(points):
            return gaussian(np.atleast_2d(points) / scale)

        plain = run_sampler(gaussian, prior, 40, 120, seed=9, init_positions=init)
        mapped = run_sampler(target_scaled, prior_scaled, 40, 120, seed=9,
                             init_positions=init * scale)
        np.testing.assert_array_equal(mapped, plain * scale)

    def test_all_minus_inf_initialization_fails(self):
        prior = BoxPrior([0.0], [1.0])

        def impossible(points):
            return np.full(np.atleast_2d(points).shape[0], -np.inf)

        with pytest.raises(InitializationError):
            run_sampler(impossible, prior, n_walkers=10, n_steps=5, seed=10)

    def test_stuck_walkers_spread_over_finite_walkers(self, caplog):
        prior = BoxPrior([0.0, 0.0], [1.0, 1.0])
        calls = []

        def left_strip(points):
            calls.append(len(points))
            return np.where(points[:, 0] < 0.3, -np.sum(points**2, axis=1), -np.inf)

        with caplog.at_level(logging.WARNING, logger="gpinv.mcmc"):
            ens = gpinv.mcmc._init_ensemble(left_strip, prior, 20, np.random.default_rng(4))
        n_finite = int(np.sum(prior.sample(np.random.default_rng(4), 20)[:, 0] < 0.3))
        n_stuck = 20 - n_finite
        assert n_finite >= 2 and n_stuck >= 2
        assert calls == [20]
        assert sum("re-seeded" in r.message for r in caplog.records) == 1
        assert np.all(np.isfinite(ens.log_probs))
        np.testing.assert_array_equal(ens.log_probs, left_strip(ens.positions))
        _, counts = np.unique(ens.positions, axis=0, return_counts=True)
        assert counts.max() <= 1 + -(-n_stuck // n_finite)

    def test_more_rows_than_walkers_keeps_the_most_probable(self):
        prior = BoxPrior([0.0], [10.0])
        rows = np.array([[2.5], [7.25], [10.0], [5.0], [7.75], [1.0]])

        def steps(points):  # 2, 7, -inf, 5, 7, 1: rows 1 and 4 tie
            return np.where(points[:, 0] < 10.0, np.floor(points[:, 0]), -np.inf)

        ens = gpinv.mcmc._init_ensemble(steps, prior, 4, np.random.default_rng(0), rows)
        np.testing.assert_array_equal(ens.positions[:, 0], [7.25, 7.75, 5.0, 2.5])
        np.testing.assert_array_equal(ens.log_probs, [7.0, 7.0, 5.0, 2.0])

    def test_more_rows_than_walkers_still_moves_stuck_walkers(self, caplog):
        prior = BoxPrior([0.0], [1.0])
        rows = np.array([[0.1], [0.9], [0.2], [0.8], [0.7], [0.6]])

        def left(points):
            return np.where(points[:, 0] < 0.5, -points[:, 0], -np.inf)

        with caplog.at_level(logging.WARNING, logger="gpinv.mcmc"):
            ens = gpinv.mcmc._init_ensemble(left, prior, 4, np.random.default_rng(0), rows)
        np.testing.assert_array_equal(ens.positions[:, 0], [0.1, 0.2, 0.1, 0.2])
        np.testing.assert_array_equal(ens.log_probs, [-0.1, -0.2, -0.1, -0.2])
        assert sum("re-seeded 2 walkers" in r.message for r in caplog.records) == 1

    def test_fewer_rows_than_walkers_rejected(self):
        prior = BoxPrior([0.0], [1.0])
        with pytest.raises(ValueError, match="at least 4 rows"):
            gpinv.mcmc._init_ensemble(flat, prior, 4, np.random.default_rng(0), np.full((3, 1), 0.5))

    def test_too_few_walkers_rejected(self):
        prior = BoxPrior([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="walker"):
            run_sampler(flat, prior, n_walkers=4, n_steps=5, seed=0)

    def test_vectorize_rows_adapter(self):
        wrapped = vectorize_rows(lambda row: -float(row[0] ** 2))
        np.testing.assert_allclose(wrapped(np.array([[1.0], [2.0]])), [-1.0, -4.0])


class TestSettleRule:
    # Hyperparameter rows must be positive, so the box and the mode of the
    # Gaussian stand-in for the marginal likelihood sit at +MODE.
    MODE = 21.0
    FAR = np.full((40, 2), 18.0 + MODE) + np.random.default_rng(13).random((40, 2))

    @staticmethod
    def centred(psis):
        return gaussian(psis - TestSettleRule.MODE)

    @pytest.mark.parametrize("n_steps, init, settles", [
        (230, None, True),
        (10, None, False),   # the cap is below one check block
        (130, FAR, False),   # walkers still travelling to the mode at the cap
    ])
    def test_stops_at_a_check_within_the_cap(self, n_steps, init, settles, monkeypatch):
        monkeypatch.setattr(gpinv.mcmc, "_lml_batch", lambda tr, psis: self.centred(psis))
        X = np.linspace(-4.0, 4.0, 6)[:, None]
        training = TrainingSet.from_data(X, np.sin(X[:, 0]))
        prior = BoxPrior([1.0, 1.0], [41.0, 41.0])
        ens = sample_hyperposterior(training, prior, 40, n_steps, seed=12, init_positions=init)
        assert (ens.sweeps < n_steps) == settles
        assert ens.sweeps == n_steps or ens.sweeps % SETTLE_EVERY == 0
        # the check draws nothing, so the chain is the fixed-length one cut short
        fixed = run_sampler(self.centred, prior, 40, ens.sweeps, seed=12, init_positions=init)
        np.testing.assert_array_equal(ens.hyperparams, fixed)


class TestSampleHyperposterior:
    @pytest.fixture
    def training(self):
        rng = np.random.default_rng(20)
        X = rng.uniform(-4, 4, (6, 1))
        return TrainingSet.from_data(X, np.sin(X[:, 0]))

    def test_one_d_prior_protocol(self, training):
        # Scalar-problem protocol: box (1e-8, 12) x (1e-8, 5), 100 samples.
        prior = BoxPrior([1e-8, 1e-8], [12.0, 5.0])
        ens = sample_hyperposterior(training, prior, n_walkers=100, n_steps=60, seed=21)
        assert len(ens.hyperparams) == 100
        psis = ens.hyperparams
        assert np.all(psis > 1e-8 - 1e-15)
        assert np.all(psis <= [12.0, 5.0])

    def test_ensemble_keeps_training(self, training):
        prior = BoxPrior([1e-8, 1e-8], [2.0, 1.0])
        ens = sample_hyperposterior(training, prior, n_walkers=20, n_steps=30, seed=22)
        assert ens.training is training

    def test_determinism(self, training):
        prior = BoxPrior([1e-8, 1e-8], [12.0, 5.0])
        a = sample_hyperposterior(training, prior, n_walkers=20, n_steps=30, seed=23)
        b = sample_hyperposterior(training, prior, n_walkers=20, n_steps=30, seed=23)
        np.testing.assert_array_equal(a.hyperparams, b.hyperparams)

    @staticmethod
    def factorize_after_sampling(monkeypatch, factorize):
        """Swap gpinv.gp._factorize for `factorize` once the walkers are final,
        so the sampler's likelihood runs unchanged and only the ensemble sees it."""
        real_ensemble = gpinv.mcmc.GpEnsemble

        def ensemble(*args, **kwargs):
            monkeypatch.setattr(gpinv.gp, "_factorize", factorize)
            return real_ensemble(*args, **kwargs)

        monkeypatch.setattr(gpinv.mcmc, "GpEnsemble", ensemble)

    def test_ill_conditioned_fit_replaced_by_duplication(self, training, monkeypatch):
        calls = []
        real_factorize = gpinv.gp._factorize

        def flaky_factorize(X, Psi):
            calls.append(Psi.copy())
            L, shift = real_factorize(X, Psi)
            if len(calls) == 1:
                L[2], shift[2] = np.nan, np.nan
            return L, shift

        self.factorize_after_sampling(monkeypatch, flaky_factorize)
        ens = sample_hyperposterior(training, BoxPrior([1e-8, 1e-8], [2.0, 1.0]),
                                    n_walkers=10, n_steps=5, seed=24)
        assert len(calls) == 2 and len(calls[0]) == 10 and len(ens.hyperparams) == 10
        assert not any(np.array_equal(row, calls[0][2]) for row in ens.hyperparams)
        assert any(np.array_equal(row, other)
                   for k, row in enumerate(ens.hyperparams) for other in ens.hyperparams[:k])

    def test_no_factorized_row_raises(self, training, monkeypatch):
        def failing_factorize(X, Psi):
            return np.full((len(Psi), len(X), len(X)), np.nan), np.full(len(Psi), np.nan)

        self.factorize_after_sampling(monkeypatch, failing_factorize)
        with pytest.raises(InitializationError, match="usable fit"):
            sample_hyperposterior(training, BoxPrior([1e-8, 1e-8], [2.0, 1.0]),
                                  n_walkers=10, n_steps=5, seed=24)

    def test_other_fit_errors_propagate(self, training, monkeypatch):
        def broken_factorize(X, Psi):
            raise ValueError("not a conditioning problem")

        self.factorize_after_sampling(monkeypatch, broken_factorize)
        with pytest.raises(ValueError, match="conditioning"):
            sample_hyperposterior(training, BoxPrior([1e-8, 1e-8], [2.0, 1.0]),
                                  n_walkers=10, n_steps=5, seed=25)

    def test_chain_ends_once_settled(self, training, monkeypatch):
        # A sharp stand-in for the marginal likelihood settles well before the cap.
        monkeypatch.setattr(gpinv.mcmc, "_lml_batch",
                            lambda tr, psis: gaussian(4.0 * (psis - [6.0, 2.5])))
        ens = sample_hyperposterior(training, BoxPrior([1e-8, 1e-8], [12.0, 5.0]),
                                    n_walkers=40, n_steps=400, seed=30)
        assert ens.sweeps < 400 and ens.sweeps % SETTLE_EVERY == 0

    def test_warm_start_reruns_bit_for_bit(self, training):
        prior = BoxPrior([1e-8, 1e-8], [12.0, 5.0])
        init = sample_hyperposterior(training, prior, n_walkers=20, n_steps=30, seed=26).hyperparams
        a = sample_hyperposterior(training, prior, 20, 30, seed=27, init_positions=init)
        b = sample_hyperposterior(training, prior, 20, 30, seed=27, init_positions=init)
        np.testing.assert_array_equal(a.hyperparams, b.hyperparams)
        assert a.sweeps == 30
        cold = sample_hyperposterior(training, prior, 20, 30, seed=27)
        assert not np.array_equal(a.hyperparams, cold.hyperparams)

    def test_warm_start_accepts_duplicate_rows(self, training):
        prior = BoxPrior([1e-8, 1e-8], [12.0, 5.0])
        rows = sample_hyperposterior(training, prior, n_walkers=20, n_steps=30, seed=28).hyperparams
        init = rows[np.arange(20) % 7]
        ens = sample_hyperposterior(training, prior, 20, 30, seed=29, init_positions=init)
        assert len(ens.hyperparams) == 20 and np.all(prior.contains(ens.hyperparams))
        assert np.unique(ens.hyperparams, axis=0).shape[0] > 7

    def test_dimension_check(self, training):
        with pytest.raises(ValueError, match="dimension"):
            sample_hyperposterior(training, BoxPrior([1e-8], [1.0]), 10, 5, 0)

    def test_sweep_cap_below_one_rejected(self, training):
        with pytest.raises(ValueError, match="n_steps must be at least 1, got 0"):
            sample_hyperposterior(training, BoxPrior([1e-8, 1e-8], [2.0, 1.0]), 10, 0, 0)
