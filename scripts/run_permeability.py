#!/usr/bin/env python3
"""Nine-parameter permeability inversion: adaptive run from an 18-point
Latin hypercube, then the surrogate posterior and its HPD intervals."""

import argparse

import numpy as np

from gpinv.adaptive import run_adaptive
from gpinv.experiments import PERMEABILITY, surrogate_loglik_rows
from gpinv.likelihood import misfit_of_outputs
from gpinv.posterior import hpd_region, sample_posterior


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-samples", type=int, default=20_000)
    args = ap.parse_args()

    spec = PERMEABILITY
    model = spec.build_model()
    meas = spec.measurement(model)

    result = run_adaptive(model, meas, spec.adaptive_config(seed=args.seed))
    rec = result.record
    g_final = min(misfit_of_outputs(r, meas) for r in result.training.raw_outputs)
    print(f"terminated: {rec.termination} after {len(rec.iterations)} iterations; "
          f"n_train={result.training.n_train}, forward evaluations={model.n_evals}, "
          f"g_min={g_final:.3f}")

    prior = spec.bounds
    surr_set = sample_posterior(surrogate_loglik_rows(result.ensemble, meas), prior, args.n_samples,
                                seed=args.seed + 2000, n_walkers=spec.posterior_walkers,
                                source="surrogate")
    print("surrogate posterior median:", np.median(surr_set.samples, axis=0).round(3))
    print("surrogate 95% HPD intervals:")
    for k, (lo, hi) in enumerate(hpd_region(surr_set).intervals()):
        print(f"  theta_{k + 1}: [{lo:.3f}, {hi:.3f}]")


if __name__ == "__main__":
    main()
