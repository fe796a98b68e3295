#!/usr/bin/env python3
"""Scalar rational-function experiment: adaptive design, then compare the
surrogate posterior with the true-model posterior."""

import argparse

import numpy as np

from gpinv.adaptive import run_adaptive
from gpinv.experiments import ONE_D, surrogate_loglik_rows, true_loglik_rows
from gpinv.posterior import hpd_region, sample_posterior


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--n-samples", type=int, default=20_000)
    args = ap.parse_args()

    spec = ONE_D
    model = spec.build_model()
    meas = spec.measurement(model)
    print(f"measurement z = {meas.z[0]:.5f} (sigma = {spec.noise_sigma})")

    result = run_adaptive(model, meas, spec.adaptive_config(seed=args.seed))
    rec = result.record
    print(f"terminated: {rec.termination} after {len(rec.iterations)} iterations, "
          f"{result.training.n_train} total inputs, {model.n_evals} forward evaluations")
    print("design:", np.sort(result.training.inputs.ravel()).round(3))

    prior = spec.bounds
    true_set = sample_posterior(true_loglik_rows(model, meas), prior, args.n_samples,
                                seed=args.seed + 1, n_walkers=spec.posterior_walkers,
                                source="true-model")
    surr_set = sample_posterior(surrogate_loglik_rows(result.ensemble, meas), prior, args.n_samples,
                                seed=args.seed + 2, n_walkers=spec.posterior_walkers,
                                source="surrogate")

    bins = np.linspace(spec.bounds.lower[0], spec.bounds.upper[0], 51)
    h_true, _ = np.histogram(true_set.samples[:, 0], bins=bins)
    h_surr, _ = np.histogram(surr_set.samples[:, 0], bins=bins)
    tv = 0.5 * np.abs(h_true / h_true.sum() - h_surr / h_surr.sum()).sum()
    print(f"posterior total-variation distance (50 bins): {tv:.4f}")
    print("true 95% HPD:     ", [(round(a, 3), round(b, 3)) for a, b in hpd_region(true_set).intervals()])
    print("surrogate 95% HPD:", [(round(a, 3), round(b, 3)) for a, b in hpd_region(surr_set).intervals()])


if __name__ == "__main__":
    main()
