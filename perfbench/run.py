#!/usr/bin/env python3
"""gpinv benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload heat-adaptive --seed 1 --seconds 55 --trace 0

Load is a closed loop with one client: one process runs one unit of work at a
time (one `run_adaptive` or one `sample_posterior` call) and starts the next
when it returns, for at least two units and while the next is expected to
end within --seconds. BLAS and OpenMP pools are pinned to one thread and the
process to one CPU. Set-up (imports, model, the fine-grid data solve and,
where used, the stored emulator) is repeated and reported as its own metric;
the import is timed in this process and again in fresh interpreters.

With --trace 0 the last line of standard output is the end-to-end result; with
--trace 1 the units alternate untraced and traced, the last line carries the
per-layer metrics of the traced units, and the spans are written to
.bench_trace/. The lines before it are an environment block and a detail
block with the workload-specific figures. Metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_UNITS = 2


def pin_threads() -> None:
    """One BLAS/OpenMP thread on one CPU; must run before numpy is imported.

    On a shared 2-vCPU VM, where the process otherwise moves between vCPUs,
    staying on one cut the run-to-run standard deviation of heat-adaptive's
    wall_s from 15 % to 9.7 % of the median (six runs each).
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "load": "closed loop, one client, one unit at a time",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def fresh_import_s() -> float:
    """Import time of the workloads module in a fresh interpreter (pinned as this one)."""
    code = ("import sys, time; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "t = time.perf_counter(); import workloads; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload, seed: int, seconds: float, trace: bool, import_s=(0.0,)):
    """Set up, run units until `seconds` pass, check each; returns (values, detail, outcomes, tracer)."""
    from tracing import END, NAME, START, Tracer, layer_metrics, self_time_breakdown
    from workloads import Outcome

    tracer = Tracer() if trace else None
    setups, ctx = [], None
    for k in range(SETUP_REPEATS):
        ctx = None  # free the previous set-up first, so peak RSS counts only one
        ctx = workload.setup(tracer, unit=-1 - k)
        setups.append(ctx.timings)

    outcomes, traced_units = [], []
    start = time.perf_counter()
    # Start another unit only while it is expected to end within `seconds`,
    # so a run's length does not depend on how the last unit straddles it.
    while len(outcomes) < MIN_UNITS or (
            time.perf_counter() - start + median([o.wall_s for o in outcomes]) <= seconds):
        unit = len(outcomes)
        gc.collect()
        traced = trace and unit % 2 == 1
        tic = time.perf_counter()
        try:
            out = workload.run(ctx, seed, tracer if traced else None, unit)
        except Exception as exc:  # a failing unit is counted, not fatal to the set
            out = Outcome(wall_s=time.perf_counter() - tic, problems=[f"raised {exc!r}"])
        if out.digest and outcomes and outcomes[0].digest and out.digest != outcomes[0].digest:
            out.problems.append("output differs from the first unit at the same seed")
        outcomes.append(out)
        if traced:
            traced_units.append(unit)

    untraced = [o for u, o in enumerate(outcomes) if u not in traced_units]
    ok = [o for o in untraced if not o.problems] or untraced
    wall_s = median([o.wall_s for o in ok])
    iter_s = [t for o in ok for t in o.iter_s]
    n_failed = sum(bool(o.problems) for o in outcomes)
    values = {
        "wall_s": wall_s,
        "setup_s": median(import_s) + median([sum(t.values()) for t in setups]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "units": len(outcomes),
        "fail_ratio": n_failed / len(outcomes),
        "unit_wall_s": [round(o.wall_s, 4) for o in outcomes],
        "forward_evals": ok[0].forward_evals,
        "digest": ok[0].digest,
        "problems": sorted({p for o in outcomes for p in o.problems}),
    }
    if workload.likelihood is None:
        detail.update({
            "iter_s.p50": median(iter_s),
            "iter_s.p90": statistics.quantiles(iter_s, n=10)[-1] if len(iter_s) > 1 else 0.0,
            "iter_s": [round(t, 4) for t in iter_s],
            "g_final": ok[0].g_final,
        })
    else:
        detail.update({"samples_per_s": workload.n_samples / wall_s, "hpd_dev": ok[0].hpd_dev})

    if trace:
        per_unit = [layer_metrics(tracer, u) for u in traced_units]
        values = {key: median([m[key] for m in per_unit]) for key in per_unit[0]}
        for key in setups[0]:
            values[key] = median([t[key] for t in setups])
        values["fwd.data_s"] = median([
            s[END] - s[START] for s in tracer.spans if s[NAME] == "fwd.data"])
        values["adaptive.iterations"] = median([outcomes[u].iterations for u in traced_units])
        traced_wall = median([outcomes[u].wall_s for u in traced_units])
        values["trace.overhead_s"] = traced_wall - wall_s
        breakdown = self_time_breakdown(tracer, traced_units[-1])
        detail["trace"] = {
            "traced_wall_s": traced_wall,
            "untraced_wall_s": wall_s,
            "self_s": breakdown,
            "self_sum_s": sum(breakdown.values()),
            "unit_wall_s": outcomes[traced_units[-1]].wall_s,
            "spans": len(tracer.spans),
        }
    return values, detail, outcomes, tracer


def result(values: dict, outcomes: list, trace: bool) -> dict:
    """The result line: every metric BENCHMARK.json lists for this mode, with its unit."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    failed = sum(bool(o.problems) for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gpinv").is_dir() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no gpinv source tree (src/gpinv, configs/)", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    tic = time.perf_counter()
    import workloads
    import_s = [time.perf_counter() - tic]
    import_s += [fresh_import_s() for _ in range(SETUP_REPEATS - 1)]

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    values, detail, outcomes, tracer = run_workload(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), import_s)

    if tracer is not None:
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(path)
        detail["trace"]["file"] = str(path.relative_to(ROOT))

    print(json.dumps({"environment": environment()}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result(values, outcomes, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
