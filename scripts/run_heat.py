#!/usr/bin/env python3
"""Heat-source inversion: single adaptive run, posteriors with both
likelihoods, HPD boxes, and optionally the 10-run design comparison."""

import argparse

from gpinv.adaptive import run_adaptive
from gpinv.experiments import HEAT, surrogate_loglik_rows, true_loglik_rows
from gpinv.likelihood import misfit_of_outputs
from gpinv.posterior import hpd_region, sample_posterior


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-samples", type=int, default=20_000)
    ap.add_argument("--runs", type=int, default=1, help="adaptive restarts to report")
    args = ap.parse_args()

    spec = HEAT
    model = spec.build_model()
    meas = spec.measurement(model)

    for run in range(args.runs):
        seed = args.seed + run
        result = run_adaptive(model, meas, spec.adaptive_config(seed=seed))
        rec = result.record
        g_final = min(misfit_of_outputs(r, meas) for r in result.training.raw_outputs)
        print(f"run {run + 1}: {rec.termination}, n_train={result.training.n_train}, "
              f"g_min={g_final:.3f}, rel EI={rec.iterations[-1].relative_improvement:.2e}")

    prior = spec.bounds
    true_set = sample_posterior(true_loglik_rows(model, meas), prior, args.n_samples,
                                seed=args.seed + 1000, n_walkers=spec.posterior_walkers,
                                source="true-model")
    surr_set = sample_posterior(surrogate_loglik_rows(result.ensemble, meas), prior, args.n_samples,
                                seed=args.seed + 2000, n_walkers=spec.posterior_walkers,
                                source="surrogate")
    fmt = lambda s: [(round(a, 3), round(b, 3)) for a, b in hpd_region(s).intervals()]
    print("true 95% HPD:     ", fmt(true_set))
    print("surrogate 95% HPD:", fmt(surr_set))
    print("true posterior mean:", true_set.samples.mean(axis=0).round(4),
          " surrogate:", surr_set.samples.mean(axis=0).round(4))


if __name__ == "__main__":
    main()
