"""Command-line front end.

Subcommands cover the full workflow: run the adaptive loop, draw posterior
samples with either likelihood, summarize samples into HPD boxes, reproduce
the multi-run design comparison (with each surrogate posterior's grid distance
from the true one), generate space-filling designs, and evaluate forward
models. Every run writes into a fresh directory with a manifest
listing each file the command wrote and its content hash; reruns with the same
seed reproduce the same hashes (timings.csv is the one explicitly volatile file).

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
Every command writes its files before it prints, so a standard output that
the reader has closed still exits 0, without a traceback.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .adaptive import AdaptiveResult, run_adaptive
from .designs import SOBOL_MAX_DIM, DesignBox, latin_hypercube, sobol
from .errors import GpinvError
from .experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    load_experiment,
    surrogate_loglik_rows,
    true_loglik_rows,
)
from .forward_models import ForwardModel, write_grid_field
from .gp import GpEnsemble, TrainingSet
from .likelihood import MeasurementModel, misfit_of_outputs
from .mcmc import sample_hyperposterior
from .posterior import grid_hellinger, grid_points, hpd_region, sample_posterior

log = logging.getLogger(__name__)

MANIFEST_SCHEMA_VERSION = 1
VOLATILE_FILES = {"timings.csv"}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def write_manifest(out_dir: Path, names: list[str], status: str = "complete") -> Path:
    """List the files `names` in out_dir with their sizes and hashes. Other
    files there, such as a --force rerun's leftovers, stay unlisted."""
    entries = [{"name": path.name, "bytes": path.stat().st_size, "sha256": _sha256(path),
                "volatile": path.name in VOLATILE_FILES}
               for path in sorted(out_dir / name for name in names)]
    manifest = {"schema_version": MANIFEST_SCHEMA_VERSION, "status": status, "files": entries}
    target = out_dir / "manifest.json"
    target.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return target


def write_csv(path: Path, header: list[str], rows: np.ndarray) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _theta_names(p: int) -> list[str]:
    return [f"theta_{i + 1}" for i in range(p)]


def _psi_names(p: int) -> list[str]:
    return ["sigma_c"] + [f"ell_{i + 1}" for i in range(p)]


def _check_out_dir(path: Path) -> None:
    """UsageError unless --out's `path` is a directory or can be made one."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"--out {path}: {existing} is not a directory")


def _out_file(raw: str) -> Path:
    """The --out path of a one-file output, checked before anything is written."""
    out = Path(raw)
    if out.is_dir():
        raise UsageError(f"--out {out} is a directory, not a file")
    _check_out_dir(out.parent)
    return out


def _prepare_out_dir(raw: str, force: bool) -> Path:
    out = Path(raw)
    _check_out_dir(out)
    if out.exists() and any(out.iterdir()) and not force:
        raise UsageError(f"output directory {out} is not empty (use --force to reuse)")
    out.mkdir(parents=True, exist_ok=True)
    return out


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


def _at_least(name: str, value: int, low: int) -> None:
    """UsageError when the integer option `name` lies below `low`."""
    if value < low:
        raise UsageError(f"{name} must be at least {low}, got {value}")


def _parse_bounds(raw: str) -> DesignBox:
    """The box of a --bounds value: space-separated "lo,hi" pairs, one per dimension."""
    try:
        pairs = [tuple(map(float, chunk.split(","))) for chunk in raw.split()]
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError('expected space-separated "lo,hi" pairs')
        return DesignBox([lo for lo, _ in pairs], [hi for _, hi in pairs])
    except ValueError as exc:
        raise UsageError(f"--bounds {raw!r}: {exc}") from exc


def _parse_theta(raw: str, dim: int) -> np.ndarray:
    """The point of a --theta value: `dim` comma- or space-separated finite numbers."""
    try:
        theta = np.array([float(v) for v in raw.replace(",", " ").split()])
    except ValueError as exc:
        raise UsageError(f"--theta {raw!r}: {exc}") from exc
    if theta.size != dim:
        raise UsageError(f"--theta {raw!r}: expected {dim} values, got {theta.size}")
    if not np.all(np.isfinite(theta)):
        raise UsageError(f"--theta {raw!r}: values must be finite")
    return theta


def _load_spec(args) -> ExperimentSpec:
    if getattr(args, "config", None):
        try:
            return load_experiment(args.config)
        except (OSError, ValueError, KeyError) as exc:
            raise UsageError(f"cannot load config {args.config}: {exc}") from exc
    if getattr(args, "experiment", None):
        if args.experiment not in EXPERIMENTS:
            raise UsageError(f"unknown experiment {args.experiment!r}; choose from {sorted(EXPERIMENTS)}")
        return EXPERIMENTS[args.experiment]
    raise UsageError("provide --config FILE or --experiment NAME")


def _write_run_outputs(out: Path, spec: ExperimentSpec, result: AdaptiveResult, meas) -> list[str]:
    p = result.training.input_dim
    q = result.training.n_outputs
    write_csv(out / "design.csv",
              _theta_names(p) + [f"f_{i + 1}" for i in range(q)],
              np.hstack([result.training.inputs, result.training.raw_outputs]))
    write_csv(out / "hyperposterior.csv", _psi_names(p), result.ensemble.hyperparams)
    write_csv(out / "measurement.csv", ["z", "noise_var"],
              np.column_stack([meas.z, meas.noise_vars]))
    (out / "record.json").write_text(result.record.to_json())
    timing_rows = np.array([[it.k, it.wall_time_s] for it in result.record.iterations])
    write_csv(out / "timings.csv", ["k", "wall_time_s"], timing_rows)
    (out / "config_snapshot.json").write_text(json.dumps(
        {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(spec).items()},
        indent=1, sort_keys=True))
    return ["design.csv", "hyperposterior.csv", "measurement.csv", "record.json", "timings.csv",
            "config_snapshot.json"]


def cmd_run_adaptive(args) -> int:
    _at_least("--seed", args.seed, 0)
    spec = _load_spec(args)
    out = _prepare_out_dir(args.out, args.force)
    model = spec.build_model()
    meas = spec.measurement(model)
    result = run_adaptive(model, meas, spec.adaptive_config(seed=args.seed))
    written = _write_run_outputs(out, spec, result, meas)
    partial = result.record.termination in ("forward-failure", "duplicate-point")
    write_manifest(out, written, status="partial" if partial else "complete")
    print(f"terminated: {result.record.termination}; design size {result.training.n_train}; "
          f"forward evaluations {model.n_evals}")
    print(f"outputs in {out}")
    return 0


def load_surrogate(run_dir: Path) -> tuple[GpEnsemble, TrainingSet]:
    """Rebuild the ensemble from a run directory's design and psi samples."""
    _, design = read_csv(run_dir / "design.csv")
    header, psis = read_csv(run_dir / "hyperposterior.csv")
    p = len(header) - 1
    training = TrainingSet.from_data(design[:, :p], design[:, p:])
    return GpEnsemble(training, psis), training


def _load_run_dir(raw: str | None, spec: ExperimentSpec, model: ForwardModel) -> GpEnsemble:
    """The emulator of a --run-dir; a missing or unreadable one, or one whose
    design does not fit the experiment's inputs and outputs, is a usage error."""
    if not raw:
        raise UsageError("surrogate likelihood requires --run-dir from a previous run-adaptive")
    try:
        ensemble, training = load_surrogate(Path(raw))
    except (OSError, ValueError) as exc:
        raise UsageError(f"--run-dir {raw}: {exc}") from exc
    if (training.input_dim, training.n_outputs) != (spec.bounds.dim, model.output_dim):
        raise UsageError(
            f"--run-dir {raw}: its design has {training.input_dim} inputs and "
            f"{training.n_outputs} outputs, but the {spec.name} experiment has "
            f"{spec.bounds.dim} and {model.output_dim}")
    return ensemble


def cmd_sample_posterior(args) -> int:
    _at_least("--n", args.n, 1)
    _at_least("--seed", args.seed, 0)
    spec = _load_spec(args)
    model = spec.build_model()
    ensemble = _load_run_dir(args.run_dir, spec, model) if args.likelihood == "surrogate" else None
    out = _prepare_out_dir(args.out, args.force)
    meas = spec.measurement(model)
    prior = spec.bounds
    if ensemble is not None:
        evals_before = model.n_evals
        loglik = surrogate_loglik_rows(ensemble, meas)
    else:
        loglik = true_loglik_rows(model, meas)
    samples = sample_posterior(
        loglik, prior, n_samples=args.n, seed=args.seed,
        n_walkers=spec.posterior_walkers, source=args.likelihood,
    )
    if args.likelihood == "surrogate" and model.n_evals != evals_before:
        raise GpinvError("surrogate sampling unexpectedly invoked the forward model")
    write_csv(out / "samples.csv", _theta_names(prior.dim), samples.samples)
    (out / "sampling_metadata.json").write_text(json.dumps(
        {"source": samples.source, **samples.metadata}, indent=1, sort_keys=True))
    write_manifest(out, ["samples.csv", "sampling_metadata.json"])
    print(f"{samples.n_samples} samples ({args.likelihood}) in {out}")
    return 0


def cmd_hpd(args) -> int:
    path = Path(args.samples)
    if not path.exists():
        raise UsageError(f"samples file {path} not found")
    if not 0.0 < args.alpha < 1.0:
        raise UsageError(f"--alpha must lie in (0, 1), got {args.alpha}")
    out = _out_file(args.out) if args.out else None
    try:
        header, data = read_csv(path)
        summary = hpd_region(data, alpha=args.alpha)
    except ValueError as exc:
        raise UsageError(f"--samples {path}: {exc}") from exc
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        write_csv(out, ["lower", "upper"], np.column_stack([summary.lower, summary.upper]))
    for name, lo, hi in zip(header, summary.lower, summary.upper):
        print(f"{name}: [{lo:.6g}, {hi:.6g}]")
    return 0


def _true_log_density(spec: ExperimentSpec) -> np.ndarray | None:
    """The true log-likelihood at `grid_points(spec.bounds)`, or None for p > 2,
    where the grid would be too coarse (3 cells per side in 9-D) to tell anything."""
    if spec.bounds.dim > 2:
        return None
    model = spec.build_model()
    return true_loglik_rows(model, spec.measurement(model))(grid_points(spec.bounds))


def _hellinger(true_grid: np.ndarray | None, spec: ExperimentSpec, ensemble: GpEnsemble,
               meas: MeasurementModel) -> float:
    """Grid distance of the ensemble's surrogate posterior from the true one (nan for p > 2)."""
    if true_grid is None:
        return np.nan
    return grid_hellinger(true_grid, surrogate_loglik_rows(ensemble, meas)(grid_points(spec.bounds)))


def _compare_one(spec: ExperimentSpec, seed: int, true_grid: np.ndarray | None):
    model = spec.build_model()
    meas = spec.measurement(model)
    result = run_adaptive(model, meas, spec.adaptive_config(seed=seed))
    last = result.record.iterations[-1]
    return {
        "n_train": result.training.n_train,
        "g_min": min(misfit_of_outputs(r, meas) for r in result.training.raw_outputs),
        "rel_improvement": last.relative_improvement,
        "threshold_met": result.record.termination in ("threshold", "zero-improvement"),
        "hellinger": _hellinger(true_grid, spec, result.ensemble, meas),
        "record_json": result.record.to_json(),
    }


def _lhs_one(spec: ExperimentSpec, seed: int, n_points: int, true_grid: np.ndarray | None):
    """An LHS design of n_points and, for p <= 2, the grid distance of the
    surrogate posterior of an ensemble fitted to it."""
    model = spec.build_model()
    meas = spec.measurement(model)
    design = latin_hypercube(n_points, spec.bounds, seed=seed)
    outputs = np.array([model.evaluate(row) for row in design])
    hellinger = np.nan
    if true_grid is not None:
        # The fit draws from its own stream, apart from the design's seed.
        fit_seed = int(np.random.SeedSequence([seed, 0x15]).generate_state(1)[0])
        ensemble = sample_hyperposterior(TrainingSet.from_data(design, outputs), spec.hyper_prior,
                                         n_walkers=spec.n_walkers, n_steps=spec.n_steps,
                                         seed=fit_seed)
        hellinger = _hellinger(true_grid, spec, ensemble, meas)
    return {"n_train": n_points,
            "g_min": min(misfit_of_outputs(row, meas) for row in outputs),
            "hellinger": hellinger}


def cmd_compare_designs(args) -> int:
    _at_least("--runs", args.runs, 1)
    _at_least("--seed", args.seed, 0)
    _at_least("--workers", args.workers, 0)
    spec = _load_spec(args)
    out = _prepare_out_dir(args.out, args.force)
    seeds = [args.seed + r for r in range(args.runs)]
    true_grid = _true_log_density(spec)
    adaptive_run = functools.partial(_compare_one, spec, true_grid=true_grid)
    lhs_run = functools.partial(_lhs_one, spec, n_points=spec.n_initial + spec.n_max,
                                true_grid=true_grid)
    workers = args.workers or min(args.runs, 4)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            adaptive_rows = list(pool.map(adaptive_run, seeds))
            lhs_rows = list(pool.map(lhs_run, seeds))
    else:
        adaptive_rows = list(map(adaptive_run, seeds))
        lhs_rows = list(map(lhs_run, seeds))

    table = np.array([
        [r + 1, row["n_train"], row["g_min"], row["rel_improvement"], float(row["threshold_met"]),
         row["hellinger"]]
        for r, row in enumerate(adaptive_rows)
    ])
    write_csv(out / "adaptive_table.csv",
              ["run", "final_n_train", "final_g_min", "final_rel_improvement", "threshold_met",
               "final_hellinger"],
              table)
    lhs_table = np.array([[r + 1, row["n_train"], row["g_min"], row["hellinger"]]
                          for r, row in enumerate(lhs_rows)])
    write_csv(out / "lhs_table.csv", ["run", "n_train", "g_min", "hellinger"], lhs_table)
    records = [f"record_run{r + 1:02d}.json" for r in range(args.runs)]
    for name, row in zip(records, adaptive_rows):
        (out / name).write_text(row["record_json"])
    write_manifest(out, ["adaptive_table.csv", "lhs_table.csv", *records])
    met = sum(row["threshold_met"] for row in adaptive_rows)
    print(f"{args.runs} adaptive runs: {met} met the threshold; median Hellinger distance "
          f"{np.median(table[:, -1]):.3g} adaptive, {np.median(lhs_table[:, -1]):.3g} LHS; "
          f"tables in {out}")
    return 0


def cmd_gen_design(args) -> int:
    _at_least("--n", args.n, 1)
    _at_least("--seed", args.seed, 0)
    if args.kind == "lhs" and args.skip:
        raise UsageError(f"--skip {args.skip}: only --kind sobol skips points")
    if (args.config or args.experiment) and args.bounds:
        raise UsageError("--bounds cannot be combined with --config or --experiment")
    if args.config or args.experiment:
        box = _load_spec(args).bounds
    elif args.bounds:
        box = _parse_bounds(args.bounds)
    else:
        raise UsageError("provide --config, --experiment, or --bounds")
    if args.kind == "sobol" and box.dim > SOBOL_MAX_DIM:
        raise UsageError(f"--bounds has {box.dim} pairs; sobol designs have at most {SOBOL_MAX_DIM}")
    out = _out_file(args.out)
    if args.kind == "lhs":
        points = latin_hypercube(args.n, box, seed=args.seed)
    else:
        try:
            points = sobol(args.n, box, skip=args.skip)
        except ValueError as exc:
            raise UsageError(f"--skip {args.skip} with --n {args.n}: {exc}") from exc
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, _theta_names(box.dim), points)
    print(f"{args.n} {args.kind} points in {out}")
    return 0


def cmd_eval_model(args) -> int:
    spec = _load_spec(args)
    theta = _parse_theta(args.theta, spec.bounds.dim)
    model = spec.build_model()
    if args.dump_field and not hasattr(model, "fields"):
        raise UsageError(f"--dump-field: the {spec.name} model has no solution fields")
    out = _prepare_out_dir(args.out, args.force)
    outputs = model.fine_evaluate(theta) if args.fine else model.evaluate(theta)
    write_csv(out / "outputs.csv", [f"f_{i + 1}" for i in range(outputs.size)], outputs[None, :])
    written = ["outputs.csv"]
    if args.dump_field:
        for name, field in model.fields(theta, fine=args.fine).items():
            write_grid_field(out / f"{name}.txt", field)
            written.append(f"{name}.txt")
    write_manifest(out, written)
    print(f"outputs in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpinv", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p):
        p.add_argument("--config", help="experiment config file (INI)")
        p.add_argument("--experiment", help=f"built-in experiment: {sorted(EXPERIMENTS)}")

    p = sub.add_parser("run-adaptive", help="run the adaptive design loop")
    add_spec_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_run_adaptive)

    p = sub.add_parser("sample-posterior", help="draw posterior samples")
    add_spec_args(p)
    p.add_argument("--likelihood", choices=("true", "surrogate"), default="surrogate")
    p.add_argument("--run-dir", help="run-adaptive output directory (surrogate mode)")
    p.add_argument("--n", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_sample_posterior)

    p = sub.add_parser("hpd", help="per-dimension HPD intervals of a sample CSV")
    p.add_argument("--samples", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_hpd)

    p = sub.add_parser("compare-designs", help="multi-run adaptive vs LHS study")
    add_spec_args(p)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=0, help="0 = auto")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_compare_designs)

    p = sub.add_parser("gen-design", help="generate LHS or Sobol points")
    add_spec_args(p)
    p.add_argument("--bounds", help='space-separated "lo,hi" pairs, one per dimension')
    p.add_argument("--kind", choices=("lhs", "sobol"), default="lhs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skip", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_design)

    p = sub.add_parser("eval-model", help="evaluate a forward model at one point")
    add_spec_args(p)
    p.add_argument("--theta", required=True, help='comma- or space-separated values')
    p.add_argument("--fine", action="store_true", help="use the refined discretization")
    p.add_argument("--dump-field", action="store_true", help="write PDE solution fields")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_eval_model)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of standard output has gone after the files were written.
        # Send what is still buffered to devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GpinvError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
