import dataclasses
import json

import numpy as np
import pytest

import gpinv.adaptive
from gpinv.acquisition import (
    AcquisitionResult,
    AcquisitionState,
    expected_improvement,
    maximize_acquisition,
)
from gpinv.adaptive import (
    EPS_THRESH,
    AdaptiveConfig,
    RunRecord,
    confirm_stop,
    make_extra_starts,
    make_starts,
    run_adaptive,
)
from gpinv.designs import DesignBox
from gpinv.experiments import HEAT
from gpinv.forward_models import Rational1D, generate_measurements
from gpinv.gp import GpEnsemble, TrainingSet, _lml_batch
from gpinv.likelihood import MeasurementModel
from gpinv.mcmc import BoxPrior, run_chain, sample_hyperposterior


def fast_config(seed=0, n_max=6, **overrides):
    """Scalar-problem configuration slimmed down for unit-test runtimes."""
    values = dict(
        bounds=DesignBox([-6.0], [6.0]),
        hyper_prior=BoxPrior([1e-8, 1e-8], [12.0, 5.0]),
        initial_design=np.array([[-4.0], [0.0], [4.0]]),
        n_max=n_max,
        n_walkers=30,
        n_steps=60,
        n_starts=9,
        extra_starts=0,
        seed=seed,
    )
    values.update(overrides)
    return AdaptiveConfig(**values)


def scalar_problem():
    """A fresh rational model and its data at theta = 2.41."""
    model = Rational1D()
    meas = generate_measurements(model, [2.41], 0.01**2, seed=101)
    return model, meas


@pytest.fixture
def problem():
    return scalar_problem()


class TestAdaptiveConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            fast_config(n_max=0)
        with pytest.raises(ValueError):
            fast_config(initial_design=np.array([[99.0]]))

    @pytest.mark.parametrize("field, value", [
        ("n_steps", 0), ("n_starts", 0), ("extra_starts", -1), ("n_walkers", 31), ("n_walkers", 2),
        ("hyper_prior", BoxPrior([1e-8] * 3, [12.0, 5.0, 5.0])),
    ])
    def test_protocol_values_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            fast_config(**{field: value})

    def test_confirm_default_depends_on_dimension(self):
        assert not fast_config().confirm  # 1-D
        cfg2 = fast_config(bounds=DesignBox([0.0, 0.0], [1.0, 1.0]),
                           hyper_prior=BoxPrior([1e-8] * 3, [2.0, 1.0, 1.0]),
                           initial_design=np.array([[0.5, 0.5]]), extra_starts=100)
        assert cfg2.confirm

    def test_make_starts(self):
        pts = make_starts(fast_config(n_starts=5))
        np.testing.assert_allclose(pts.ravel(), np.linspace(-6, 6, 5))
        cfg2 = fast_config(bounds=DesignBox([0.0, 0.0], [1.0, 1.0]),
                           hyper_prior=BoxPrior([1e-8] * 3, [2.0, 1.0, 1.0]),
                           initial_design=np.array([[0.5, 0.5]]), n_starts=10)
        pts2 = make_starts(cfg2)
        assert pts2.shape == (10, 2)
        assert np.all(cfg2.bounds.contains(pts2))


class TestRunAdaptive:
    def test_budget_accounting_and_monotonicity(self, problem):
        model, meas = problem
        result = run_adaptive(model, meas, fast_config(seed=1, n_max=4))
        record = result.record
        assert record.n_forward_evals == model.n_evals
        assert record.n_forward_evals <= 3 + 4
        g = record.g_min_history
        assert np.all(np.diff(g) <= 1e-12)

    def test_no_duplicate_training_inputs(self, problem):
        model, meas = problem
        result = run_adaptive(model, meas, fast_config(seed=2, n_max=5))
        inputs = result.training.inputs
        dists = np.abs(inputs[:, None, :] - inputs[None, :, :]).sum(axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 1e-12

    def test_threshold_stop_is_sound(self, problem):
        model, meas = problem
        result = run_adaptive(model, meas, fast_config(seed=3, n_max=15))
        record = result.record
        if record.termination in ("threshold", "zero-improvement"):
            last = record.iterations[-1]
            assert last.improvement < record.eps_thresh * last.g_min
            assert not last.accepted

    def test_budget_termination(self, problem):
        model, meas = problem
        result = run_adaptive(model, meas, fast_config(seed=4, n_max=1))
        assert result.record.termination in ("budget", "threshold", "zero-improvement")
        if result.record.termination == "budget":
            assert result.training.n_train == 4
            # final ensemble is refit on the grown design
            assert result.ensemble.training is result.training

    def test_determinism(self, problem):
        model, meas = problem
        r1 = run_adaptive(Rational1D(), meas, fast_config(seed=5, n_max=3))
        r2 = run_adaptive(Rational1D(), meas, fast_config(seed=5, n_max=3))
        assert r1.record.to_json() == r2.record.to_json()
        np.testing.assert_array_equal(r1.training.inputs, r2.training.inputs)

    def test_chains_after_the_first_start_from_the_previous_rows(self, problem, monkeypatch):
        real = gpinv.adaptive.sample_hyperposterior
        calls = []

        def spy(*args, previous=None, **kwargs):
            ensemble = real(*args, previous=previous, **kwargs)
            calls.append((previous, ensemble))
            return ensemble

        monkeypatch.setattr(gpinv.adaptive, "sample_hyperposterior", spy)
        model, meas = problem
        result = run_adaptive(model, meas, fast_config(seed=4, n_max=2))
        assert result.record.termination == "budget" and len(calls) == 3
        assert calls[0][0] is None and calls[0][1].stages == 0
        for (_, drawn), (previous, ensemble) in zip(calls, calls[1:]):
            assert previous is drawn and ensemble.stages >= 1
            assert ensemble.training.n_train == previous.training.n_train + 1
        assert result.ensemble is calls[-1][1]

    @pytest.mark.parametrize("fails_by", ["raising", "returning nan"])
    def test_forward_failure_aborts_with_partial_record(self, fails_by):
        class Flaky(Rational1D):
            def _evaluate(self, theta):
                if self.n_evals <= 3:  # initial design ok, first selection fails
                    return super()._evaluate(theta)
                if fails_by == "raising":
                    raise RuntimeError("solver blew up")
                return np.array([np.nan])

        model = Flaky()
        meas = generate_measurements(Rational1D(), [2.41], 1e-4, seed=101)
        result = run_adaptive(model, meas, fast_config(seed=6, n_max=4))
        assert result.record.termination == "forward-failure"
        assert result.training.n_train == 3
        assert len(result.record.iterations) >= 1
        assert not result.record.iterations[-1].accepted

    def test_duplicate_selection_ends_the_run(self, monkeypatch):
        # Noise-free data at a design input make g_min exactly 0, so the
        # relative stop cannot fire and a selected design point reaches the
        # forward-evaluation step.
        cfg = fast_config(seed=9, n_max=4)
        meas = MeasurementModel(Rational1D().evaluate(cfg.initial_design[1]), [1e-4])
        design_point = cfg.initial_design[2].copy()
        monkeypatch.setattr(gpinv.adaptive, "maximize_acquisition",
                            lambda state, starts: AcquisitionResult(design_point.copy(), 0.0))
        model = Rational1D()
        result = run_adaptive(model, meas, cfg)
        record = result.record
        assert record.termination == "duplicate-point"
        assert model.n_evals == len(cfg.initial_design)
        assert model.n_evals == record.n_forward_evals
        assert len(record.iterations) == 1 and not record.iterations[0].accepted
        np.testing.assert_array_equal(result.training.inputs, cfg.initial_design)


@pytest.mark.slow
class TestTransitionQuality:
    """Heat seed 0's hyperposterior rows, carried from each design to the next
    by the resample-move transition, against a long chain on the new design.

    The gap is the largest difference of the 10/50/90 % quantiles in box
    widths. At 6 design points it says little about the sampler: 200 rows
    drawn from a 12,000-row pool of long chains already lie more than 0.04
    from that pool in 2 of 10 draws, so only 8 and 11 points are gated."""

    SIZES = (8, 11)
    SEEDS = (1, 2, 3)
    REFERENCE_SEED = 0
    QUANTILES = (0.1, 0.5, 0.9)

    @pytest.fixture(scope="class")
    @staticmethod
    def trajectory():
        """(training, previous ensemble) of every transition of the run."""
        calls = []

        def spy(training, *args, previous=None, **kwargs):
            calls.append((training, previous))
            return sample_hyperposterior(training, *args, previous=previous, **kwargs)

        model = HEAT.build_model()
        cfg = HEAT.adaptive_config(seed=0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gpinv.adaptive, "sample_hyperposterior", spy)
            run_adaptive(model, HEAT.measurement(model), cfg)
        return cfg, {training.n_train: (training, previous) for training, previous in calls}

    @staticmethod
    def reference(training, cfg, seed):
        """2,000 sweeps of the protocol's walkers from a uniform start, the
        walkers pooled every 100 sweeps over the second half."""
        chain = run_chain(lambda psis: _lml_batch(training, psis), cfg.hyper_prior,
                          cfg.n_walkers, seed)
        pooled = []
        for sweep in range(1, 2001):
            positions, _ = next(chain)
            if sweep > 1000 and sweep % 100 == 0:
                pooled.append(positions.copy())
        return np.concatenate(pooled)

    @pytest.mark.parametrize("n", SIZES)
    def test_within_the_long_chain_quantiles(self, trajectory, n):
        cfg, transitions = trajectory
        training, previous = transitions[n]
        assert previous is not None and previous.training.n_train == n - 1
        width = cfg.hyper_prior.upper - cfg.hyper_prior.lower
        reference = np.quantile(self.reference(training, cfg, self.REFERENCE_SEED),
                                self.QUANTILES, axis=0)
        for seed in self.SEEDS:
            rows = sample_hyperposterior(training, cfg.hyper_prior, cfg.n_walkers, cfg.n_steps,
                                         seed, previous=previous).hyperparams
            gap = np.max(np.abs(np.quantile(rows, self.QUANTILES, axis=0) - reference) / width)
            assert gap <= 0.04, (seed, gap)


class TestRunRecord:
    @pytest.fixture(scope="class")
    @staticmethod
    def record_text():
        model, meas = scalar_problem()
        return run_adaptive(model, meas, fast_config(seed=7, n_max=2)).record.to_json()

    def test_json_round_trip(self, record_text):
        clone = RunRecord.from_json(record_text)
        assert clone.to_json() == record_text
        assert clone.initial_inputs.dtype == float and clone.iterations[0].psi_std.dtype == float
        assert np.isnan(clone.iterations[0].wall_time_s)

    def test_keys_are_the_fields_in_declaration_order(self, record_text):
        doc = json.loads(record_text)
        assert list(doc) == ["schema_version", "seed", "eps_thresh", "n_max", "termination",
                             "initial_inputs", "iterations"]
        assert list(doc["iterations"][0]) == ["k", "theta", "improvement", "g_min", "psi_mean",
                                              "psi_std", "accepted"]

    @pytest.mark.parametrize("edit, key", [
        (lambda doc: doc.pop("iterations"), "iterations"),
        (lambda doc: doc["iterations"][0].update(wall_time_s=0.5), "wall_time_s"),
        (lambda doc: doc.update(schema_version=999), "schema_version"),
        (lambda doc: doc.update(iterations=[3]), "iterations"),
        (lambda doc: doc.update(iterations=5), "iterations"),
        ("[]", "top level"),
        ('"text"', "top level"),
        (lambda doc: doc.update(seed="x"), "seed"),
        (lambda doc: doc.update(seed=True), "seed"),
        (lambda doc: doc.update(n_max=[1]), "n_max"),
        (lambda doc: doc.update(eps_thresh="0.01"), "eps_thresh"),
        (lambda doc: doc.update(termination=3), "termination"),
        (lambda doc: doc.update(initial_inputs=[1, 2]), "initial_inputs"),
        (lambda doc: doc.update(initial_inputs=[[0.1], [0.2, 0.3]]), "initial_inputs"),
        (lambda doc: doc.update(initial_inputs=[[None]]), "initial_inputs"),
        (lambda doc: doc["iterations"][0].update(k=1.5), "k"),
        (lambda doc: doc["iterations"][0].update(theta=[[0.5]]), "theta"),
        (lambda doc: doc["iterations"][0].update(psi_std=["a"]), "psi_std"),
        (lambda doc: doc["iterations"][0].update(g_min=None), "g_min"),
        (lambda doc: doc["iterations"][0].update(accepted=1), "accepted"),
    ])
    def test_malformed_record_names_the_key(self, record_text, edit, key):
        """`edit` changes the record's object in place, or is the whole text."""
        text = edit
        if callable(edit):
            doc = json.loads(record_text)
            edit(doc)
            text = json.dumps(doc)
        with pytest.raises(ValueError, match=key):
            RunRecord.from_json(text)

    def test_timings_excluded_by_default(self, record_text):
        assert "wall_time" not in record_text

    def test_schema_version_checked(self):
        with pytest.raises(ValueError, match="schema"):
            RunRecord.from_json('{"schema_version": 999}')


class TestConfirmStop:
    @pytest.fixture
    def sliver(self):
        """Heat-like 2-D state whose positive-EI set is a sliver next to the design.

        The surrogate interpolates the identity map on a 5x5 grid; the data sit
        0.02 from the design point (0.1, 0.5), so EI is positive only on a small
        disc there, away from every Sobol start of the heat protocol.
        """
        box = DesignBox([0.0, 0.0], [1.0, 1.0])
        axis = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        design = np.array([[a, b] for a in axis for b in axis])
        tr = TrainingSet.from_data(design, design.copy())
        psis = [[1.0, 0.6, 0.6], [1.2, 0.7, 0.5], [0.9, 0.5, 0.7]]
        meas = MeasurementModel(np.array([0.12, 0.52]), np.full(2, 0.01**2))
        state = AcquisitionState.from_ensemble(GpEnsemble(tr, psis), meas, box)
        cfg = dataclasses.replace(HEAT.adaptive_config(seed=0), initial_design=design, n_max=1)
        return state, make_starts(cfg), make_extra_starts(cfg), EPS_THRESH * state.g_min

    def test_sliver_holds_no_start(self, sliver):
        state, starts, extra, _ = sliver
        axis = np.linspace(0.0, 1.0, 201)
        grid = np.array([[a, b] for a in axis for b in axis])
        assert 0.0 < np.mean(expected_improvement(grid, state) > 0.0) < 0.01
        assert np.all(expected_improvement(np.vstack([starts, extra]), state) == 0.0)

    def test_sweeps_alone_miss_the_sliver(self, sliver):
        state, starts, extra, threshold = sliver
        for seeds in (starts, extra):
            theta = maximize_acquisition(state, seeds).theta
            assert expected_improvement(theta[None], state)[0] < threshold

    def test_confirm_finds_the_sliver(self, sliver):
        state, _, extra, threshold = sliver
        theta, improvement = confirm_stop(state, extra)
        assert improvement >= threshold
        assert improvement == pytest.approx(expected_improvement(theta[None], state)[0], rel=1e-9)
        assert state.bounds.contains(theta[None, :])[0]
