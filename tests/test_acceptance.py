"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The permeability check is
stochastic and long; it carries the `nightly` marker and is excluded from
default runs (see pyproject). Records produced by the end-to-end criteria are
kept in RECORDS so the invariant audit at the end can replay them.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

from gpinv.acquisition import (
    ETA,
    AcquisitionState,
    expected_improvement,
    expected_improvement_smoothed,
    smoothed_pos,
)
from gpinv.adaptive import run_adaptive
from gpinv.designs import DesignBox
from gpinv.experiments import (
    HEAT,
    ONE_D,
    PERMEABILITY,
    surrogate_loglik_rows,
    true_loglik_rows,
)
from gpinv.forward_models import DarcyPermeability2D, GridSolverConfig, HeatSource2D
from gpinv.gp import GpEnsemble, HyperParams, TrainingSet
from gpinv.likelihood import MeasurementModel, misfit_of_outputs
from gpinv.mcmc import BoxPrior, run_chain
from gpinv.posterior import hpd_region, sample_posterior
from oracles import (
    d_restricted_loglik,
    ensemble_predict_vector,
    gp_misfits,
    misfits_and_grads,
    pred_grad,
    run_sampler,
)

RECORDS = {}


def report(criterion, description, passed, detail=""):
    marker = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE {criterion:>2}] {marker}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def separated_design(rng, n, p, min_sep):
    """Random points in [-1,1]^p kept min_sep apart in the max norm.

    Interpolation to 1e-6 with the default jitter needs a Gram condition the
    factorization can actually deliver; near-coincident points (or length
    scales far beyond the point spacing) make the linear algebra singular for
    any implementation, so the instance distribution keeps clear of them.
    """
    points = [rng.uniform(-1, 1, p)]
    tries = 0
    while len(points) < n and tries < 8000:
        cand = rng.uniform(-1, 1, p)
        if min(np.abs(cand - q).max() for q in points) >= min_sep:
            points.append(cand)
        tries += 1
    return np.array(points)


def random_ensemble(rng, n, p, q, n_psi):
    """Ensemble on a separated design with spacing-scaled length-scales."""
    min_sep = {1: 0.12, 2: 0.15}.get(p, 0.3)
    X = separated_design(rng, n, p, min_sep)
    tr = TrainingSet.from_data(X, rng.normal(0, 1, (X.shape[0], q)))
    if X.shape[0] > 1:
        dists = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(dists, np.inf)
        spacing = dists.min(axis=1).mean()
    else:
        spacing = 1.0
    psis = [HyperParams(rng.uniform(0.5, 2.0), spacing * rng.uniform(0.6, 1.6, p)).as_vector()
            for _ in range(n_psi)]
    return GpEnsemble(tr, psis)


def test_criterion_1_interpolation_suite():
    tic = time.time()
    rng = np.random.default_rng(1001)
    worst_mean = worst_var = worst_misfit = 0.0
    for case in range(50):
        p = (1, 2, 9)[case % 3]
        n = int(rng.integers(2, 16))
        q = int(rng.integers(1, 4))
        ens = random_ensemble(rng, n, p, q, n_psi=3)
        tr = ens.training
        n = tr.n_train
        meas = MeasurementModel(rng.normal(0, 1, q), rng.uniform(0.25, 1.0, q))
        for j in range(n):
            pred = ensemble_predict_vector(ens, tr.inputs[j])
            worst_mean = max(worst_mean, np.abs(pred.means - tr.raw_outputs[j]).max())
            worst_var = max(worst_var, pred.cov_diags.max())
            truth = misfit_of_outputs(tr.raw_outputs[j], meas)
            worst_misfit = max(worst_misfit,
                               np.abs(gp_misfits(tr.inputs[j], ens, meas) - truth).max())
    elapsed = time.time() - tic
    ok = worst_mean < 1e-6 and worst_var < 1e-6 and worst_misfit < 1e-6 and elapsed < 10
    report(1, "interpolation of outputs, variances, and misfits at training inputs", ok,
           f"mean {worst_mean:.1e}, var {worst_var:.1e}, misfit {worst_misfit:.1e}, {elapsed:.1f}s")


def test_criterion_2_gradient_suite():
    tic = time.time()
    rng = np.random.default_rng(2002)
    h = 1e-5
    worst = {"m": 0.0, "V": 0.0, "g": 0.0, "I": 0.0}
    for case in range(20):
        p = (1, 2, 3)[case % 3]
        ens = random_ensemble(rng, int(rng.integers(4, 9)), p, 2, n_psi=5)
        meas = MeasurementModel(rng.normal(0, 1, 2), rng.uniform(0.25, 1.0, 2))
        box = DesignBox(np.full(p, -1.0), np.full(p, 1.0))
        state = AcquisitionState.from_ensemble(ens, meas, box)
        def rel_err(analytic, fd):
            scale = max(np.abs(analytic).max(), np.abs(fd).max())
            if scale < 1e-7:  # both vanish; agreement is already absolute
                return 0.0
            return np.abs(analytic - fd).max() / scale

        checked = 0
        while checked < 100:
            theta = rng.uniform(-1, 1, p)
            g0, dg = misfits_and_grads(ens, meas, theta)
            # stay clear of the hinge's smoothing band: the finite-difference
            # oracle is invalid where the third derivative is O(1/eta^2)
            margin = 10 * ETA + 20 * h * (1 + np.abs(dg).max())
            if np.any(np.abs(state.g_min - g0 - ETA / 2) < ETA / 2 + margin):
                continue
            m0, V0, dm, dV = pred_grad(ens, theta)
            fd_m = np.zeros_like(dm)
            fd_V = np.zeros_like(dV)
            fd_g = np.zeros_like(dg)
            fd_I = np.zeros(p)
            for k in range(p):
                e = np.zeros(p)
                e[k] = h
                mp, Vp, _, _ = pred_grad(ens, theta + e)
                mm, Vm, _, _ = pred_grad(ens, theta - e)
                fd_m[:, :, k] = (mp - mm) / (2 * h)
                fd_V[:, k] = (Vp - Vm) / (2 * h)
                gp_, _ = misfits_and_grads(ens, meas, theta + e)
                gm_, _ = misfits_and_grads(ens, meas, theta - e)
                fd_g[:, k] = (gp_ - gm_) / (2 * h)
                fd_I[k] = (expected_improvement_smoothed((theta + e)[None], state)[0][0]
                           - expected_improvement_smoothed((theta - e)[None], state)[0][0]) / (2 * h)
            dI = expected_improvement_smoothed(theta[None], state)[1][0]
            worst["m"] = max(worst["m"], rel_err(dm, fd_m))
            worst["V"] = max(worst["V"], rel_err(dV, fd_V))
            worst["g"] = max(worst["g"], rel_err(dg, fd_g))
            worst["I"] = max(worst["I"], rel_err(dI, fd_I))
            checked += 1
    elapsed = time.time() - tic
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 30
    report(2, "analytic gradients of mean, variance, misfit, and objective match "
              "central finite differences", ok,
           ", ".join(f"{k} {v:.1e}" for k, v in worst.items()) + f", {elapsed:.1f}s")


def test_criterion_3_d_restricted_likelihood_oracle():
    tic = time.time()
    rng = np.random.default_rng(3003)
    draws = 1_000_000
    worst = 0.0
    for case in range(20):
        q = (1, 2, 3)[case % 3]
        ens = random_ensemble(rng, int(rng.integers(4, 9)), 2, q, n_psi=8)
        theta = rng.uniform(-1, 1, 2)
        pred = ensemble_predict_vector(ens, theta)
        z = pred.means.mean(axis=0) + rng.normal(0, 0.3, q)
        meas = MeasurementModel(z, rng.uniform(0.35, 1.0, q))
        exact = np.exp(d_restricted_loglik(theta, ens, meas))
        comp = rng.integers(0, len(ens.hyperparams), draws)
        f = pred.means[comp] + rng.normal(size=(draws, q)) * np.sqrt(pred.cov_diags[comp])
        dens = np.prod(np.exp(-0.5 * (meas.z - f) ** 2 / meas.noise_vars)
                       / np.sqrt(2 * np.pi * meas.noise_vars), axis=1)
        worst = max(worst, abs(exact - dens.mean()) / dens.mean())
    elapsed = time.time() - tic
    ok = worst < 0.02 and elapsed < 120
    report(3, "exp(log-likelihood) matches 1e6-draw Monte Carlo integration", ok,
           f"worst rel err {worst:.2%}, {elapsed:.0f}s")


def test_criterion_4_smoothed_hinge():
    rng = np.random.default_rng(4004)
    xs = rng.uniform(-10, 10, 10_000)
    etas = 10.0 ** rng.uniform(-6, 1, 10_000)
    sandwich_ok = True
    for x, eta in zip(xs, etas):
        value, _ = smoothed_pos(x, eta)
        hinge = max(x, 0.0)
        if not (value <= hinge + 1e-15 and hinge <= value + 0.5 * eta + 1e-15):
            sandwich_ok = False
            break
    boundary_ok = True
    for eta in 10.0 ** rng.uniform(-6, 1, 200):
        mid = lambda x: x**3 / eta**2 - x**4 / (2 * eta**3)
        mid_d = lambda x: 3 * x**2 / eta**2 - 2 * x**3 / eta**3
        scale = max(1.0, eta)
        if (abs(mid(0.0)) > 1e-12 * scale or abs(mid_d(0.0)) > 1e-12 * scale
                or abs(mid(eta) - eta / 2) > 1e-12 * scale
                or abs(mid_d(eta) - 1.0) > 1e-12 * scale):
            boundary_ok = False
            break
    report(4, "smoothed hinge sandwich and branch-boundary continuity",
           sandwich_ok and boundary_ok)


def test_criterion_5_sampler_calibration_and_affine_invariance():
    prior = BoxPrior([-10.0, -10.0], [10.0, 10.0])

    def gaussian(points):
        return -0.5 * np.sum(np.atleast_2d(points) ** 2, axis=1)

    samples = run_sampler(gaussian, prior, n_walkers=200, n_steps=400, seed=3)
    mean_err = np.abs(samples.mean(axis=0)).max()
    cov_err = np.abs(samples.var(axis=0) - 1.0).max()

    scale = np.array([2.0, 0.25])  # powers of two keep the arithmetic exact
    init = np.random.default_rng(55).uniform(-2, 2, (40, 2))
    plain, _, _ = run_chain(gaussian, prior, 40, 150, seed=9, init_positions=init)
    mapped, _, _ = run_chain(lambda pts: gaussian(np.atleast_2d(pts) / scale),
                             BoxPrior(prior.lower * scale, prior.upper * scale),
                             40, 150, seed=9, init_positions=init * scale)
    affine_ok = np.array_equal(mapped, plain * scale)
    ok = mean_err < 0.1 and cov_err < 0.15 and affine_ok
    report(5, "Gaussian target recovered and affine map reproduced bit-exactly", ok,
           f"|mean| {mean_err:.3f}, |var-1| {cov_err:.3f}, affine {affine_ok}")


def test_criterion_6_one_d_end_to_end():
    tic = time.time()
    spec = ONE_D
    model = spec.build_model()
    meas = spec.measurement(model)
    result = run_adaptive(model, meas, spec.adaptive_config(seed=42))
    RECORDS["one_d"] = [result.record]
    size = result.training.n_train
    prior = BoxPrior(spec.bounds.lower, spec.bounds.upper)
    true_set = sample_posterior(true_loglik_rows(model, meas), prior, 20_000, seed=7,
                                n_walkers=spec.posterior_walkers, source="true-model")
    surr_set = sample_posterior(surrogate_loglik_rows(result.ensemble, meas), prior, 20_000,
                                seed=8, n_walkers=spec.posterior_walkers, source="surrogate")
    bins = np.linspace(-6, 6, 51)
    h_true, _ = np.histogram(true_set.samples[:, 0], bins=bins)
    h_surr, _ = np.histogram(surr_set.samples[:, 0], bins=bins)
    tv = 0.5 * np.abs(h_true / h_true.sum() - h_surr / h_surr.sum()).sum()
    elapsed = time.time() - tic
    ok = 8 <= size <= 16 and tv < 0.1 and elapsed < 300
    report(6, "scalar experiment terminates at a sane design size and the two "
              "posteriors agree", ok,
           f"size {size}, TV {tv:.3f}, {elapsed:.0f}s")


def stop_audit(result, meas, box, grid=101):
    """(grid max of exact EI, stop threshold) for a run that stopped on its rule.

    Exact EI over the returned ensemble at the recorded incumbent is scored
    on a grid x grid lattice of the box; a sound stop keeps every value below
    eps_thresh * g_min. The oracle takes member misfits straight from the
    ensemble's predictive means and variances and shares nothing with the
    program's stop screen.
    """
    record = result.record
    g_min = record.iterations[-1].g_min
    axes = [np.linspace(lo, hi, grid) for lo, hi in zip(box.lower, box.upper)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.dim)
    tr = result.ensemble.training
    grid_max = 0.0
    for lo in range(0, points.shape[0], 256):
        m_norm, v_norm = result.ensemble.predict_batch(points[lo:lo + 256])
        m_norm, v_norm = m_norm.transpose(2, 0, 1), v_norm.T
        means = m_norm * np.sqrt(tr.out_vars) + tr.out_means
        denom = meas.noise_vars + v_norm[:, :, None] * tr.out_vars
        g = np.sum((meas.z - means) ** 2 / denom, axis=2)
        grid_max = max(grid_max, float(np.maximum(g_min - g, 0.0).mean(axis=1).max()))
    return grid_max, record.eps_thresh * g_min


@pytest.mark.slow
def test_criterion_7_heat_experiment():
    tic = time.time()
    spec = HEAT
    model = spec.build_model()
    meas = spec.measurement(model)

    def g(theta):
        return misfit_of_outputs(model.evaluate(theta), meas)

    best = min((minimize(g, x0, method="Nelder-Mead", bounds=[(0, 1), (0, 1)])
                for x0 in [(0.25, 0.75), (0.3, 0.7)]), key=lambda r: r.fun)
    g_star = best.fun
    g_star_ok = abs(g_star - 15.015) / 15.015 < 0.25

    sizes, hits, stops, premature = [], 0, [], []
    RECORDS["heat"] = []
    for run_seed in range(10):
        result = run_adaptive(model, meas, spec.adaptive_config(seed=run_seed))
        RECORDS["heat"].append(result.record)
        sizes.append(result.training.n_train)
        g_fin = min(misfit_of_outputs(r, meas) for r in result.training.raw_outputs)
        hits += g_fin <= 1.2 * g_star
        term = result.record.termination
        if term in ("threshold", "zero-improvement"):
            # a stop is premature when EI at or above its threshold is still there
            grid_max, threshold = stop_audit(result, meas, spec.bounds)
            if not grid_max < threshold:
                premature.append(run_seed)
            term += f" {grid_max:.3f}/{threshold:.3f}"
        stops.append(f"{run_seed}: {term}")
    sizes_ok = all(s <= 15 for s in sizes)
    audit_ok = not premature
    hits_ok = hits >= 6

    prior = BoxPrior(spec.bounds.lower, spec.bounds.upper)
    posterior = sample_posterior(true_loglik_rows(model, meas), prior, 20_000, seed=777,
                                 n_walkers=spec.posterior_walkers, source="true-model")
    hpd = np.array(hpd_region(posterior).intervals())
    paper_box = np.array([[0.19, 0.38], [0.61, 0.83]])
    hpd_dev = np.abs(hpd - paper_box).max()
    elapsed = time.time() - tic
    ok = (g_star_ok and sizes_ok and audit_ok and hits_ok and hpd_dev < 0.1
          and elapsed < 1800)
    report(7, "heat experiment: reference misfit, 10-run envelope, sound stops, and HPD box",
           ok, f"g* {g_star:.2f} (ref 15.015), sizes {sizes}, hits {hits}/10, "
               f"stops (grid max EI/threshold) [{', '.join(stops)}], "
               f"premature stops at seeds {premature}, "
               f"HPD dev {hpd_dev:.3f}, {elapsed:.0f}s")


@pytest.mark.nightly
def test_criterion_8_permeability_experiment():
    tic = time.time()
    spec = PERMEABILITY
    model = spec.build_model()
    meas = spec.measurement(model)
    box = spec.bounds

    def g(theta):
        return misfit_of_outputs(model.evaluate(theta), meas)

    rng = np.random.default_rng(0)
    starts = [np.array(spec.theta_true)] + [
        box.lower + (box.upper - box.lower) * rng.random(9) for _ in range(2)]
    best = min((minimize(g, x0, method="L-BFGS-B",
                         bounds=list(zip(box.lower, box.upper)),
                         options={"maxiter": 300}) for x0 in starts),
               key=lambda r: r.fun)
    g_star_ok = abs(best.fun - 12.62) / 12.62 < 0.30

    result = run_adaptive(model, meas, spec.adaptive_config(seed=0))
    RECORDS["permeability"] = [result.record]
    iters_ok = len(result.record.iterations) <= 20

    prior = BoxPrior(box.lower, box.upper)
    posterior = sample_posterior(surrogate_loglik_rows(result.ensemble, meas), prior, 20_000,
                                 seed=1234, n_walkers=spec.posterior_walkers, source="surrogate")
    ours = np.array(hpd_region(posterior).intervals())
    paper_gp = np.array([
        [0.17, 0.49], [0.53, 0.66], [0.71, 0.83], [1.34, 1.49], [0.66, 0.79],
        [0.92, 1.21], [0.86, 1.03], [0.26, 0.39], [0.28, 0.42]])
    overlaps = []
    for (alo, ahi), (blo, bhi) in zip(ours, paper_gp):
        inter = max(0.0, min(ahi, bhi) - max(alo, blo))
        union = max(ahi, bhi) - min(alo, blo)
        overlaps.append(inter / union if union > 0 else 0.0)
    jaccard_hits = sum(v >= 0.5 for v in overlaps)
    elapsed = time.time() - tic
    ok = g_star_ok and iters_ok and jaccard_hits >= 7 and elapsed < 7200
    report(8, "permeability experiment: reference misfit, termination, HPD overlap", ok,
           f"g* {best.fun:.2f} (ref 12.62), iters {len(result.record.iterations)}, "
           f"jaccard hits {jaccard_hits}/9, {elapsed:.0f}s")


def test_criterion_9_record_invariants():
    records = [rec for recs in RECORDS.values() for rec in recs]
    assert records, "end-to-end criteria must run before the invariant audit"
    monotone = True
    distinct = True
    for rec in records:
        g = rec.g_min_history
        monotone &= bool(np.all(np.diff(g) <= 1e-12))
        inputs = np.vstack([rec.initial_inputs, rec.added_inputs])
        dists = np.abs(inputs[:, None, :] - inputs[None, :, :]).sum(axis=2)
        np.fill_diagonal(dists, np.inf)
        distinct &= bool(dists.min() > 1e-12)
    report(9, "monotone incumbent misfit and distinct design points on every record",
           monotone and distinct, f"{len(records)} records audited")


def test_criterion_10_forward_model_physics():
    heat = HeatSource2D()
    field = heat.fields([0.25, 0.75])["field_t0.2"]
    mass = field.sum() / (heat.cfg.nx * heat.cfg.ny)
    conservation_ok = abs(mass - 0.2) / 0.2 < 0.02

    darcy = DarcyPermeability2D()
    theta = np.array(PERMEABILITY.theta_true)
    u = darcy.fields(theta)["field"]
    zero_mean_ok = abs(u.mean()) < 1e-12

    heat64 = HeatSource2D(cfg=GridSolverConfig(64, 64, dt=0.01))
    a, b = heat.evaluate([0.25, 0.75]), heat64.evaluate([0.25, 0.75])
    heat_conv = np.abs(a - b).max() / np.abs(b).max()
    darcy64 = DarcyPermeability2D(cfg=GridSolverConfig(64, 64))
    c, d = darcy.evaluate(theta), darcy64.evaluate(theta)
    darcy_conv = np.abs(c - d).max() / np.abs(d).max()
    ok = conservation_ok and zero_mean_ok and heat_conv < 0.01 and darcy_conv < 0.01
    report(10, "heat conservation, zero-mean Darcy pressure, self-convergence", ok,
           f"mass {mass:.4f}, |mean u| {abs(u.mean()):.1e}, "
           f"refinement {heat_conv:.2%}/{darcy_conv:.2%}")
