#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (a minute or so).

    python3 perfbench/selftest.py

It checks that
- every workload, untraced and traced, prints every metric BENCHMARK.json
  lists, with its unit, and that its toy units pass their correctness checks;
- two traced runs at one seed repeat every count and g_final exactly;
- a forward model that raises, or returns NaN, is counted as a failed unit
  and the set still completes with a result;
- in a traced run the self times of each traced unit's spans add up to the
  unit's wall time.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from unittest import mock

import run

run.pin_threads()
sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from gpinv.errors import SolverError  # noqa: E402
from tracing import UNIT, self_time_breakdown  # noqa: E402

SEED = 3
FAILURES: list[str] = []
# Same code paths as the full workloads, a second or two per unit.
TOY_OVERRIDES = {"n_walkers": 20, "n_steps": 10, "n_starts": 4, "extra_starts": 4,
                 "n_max": 2, "posterior_walkers": 20}


def toy(workload):
    overrides = {**dict(workload.overrides), **TOY_OVERRIDES}
    return replace(workload, overrides=tuple(overrides.items()),
                   n_samples=min(workload.n_samples, 200))


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        FAILURES.append(message)


def check_result_line(name: str, values: dict, outcomes: list, trace: bool) -> dict:
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = listed["per_layer" if trace else "end_to_end"]
    line = json.loads(json.dumps(run.result(values, outcomes, trace)))
    metrics = line["metrics"]
    complete = all(
        m["name"] in metrics and metrics[m["name"]]["unit"] == m["unit"]
        and isinstance(metrics[m["name"]]["value"], (int, float))
        and math.isfinite(metrics[m["name"]]["value"])
        for m in listed)
    expect(complete and len(metrics) == len(listed),
           f"{name} trace={int(trace)}: all {len(listed)} listed metrics printed with their units")
    return line


def check_self_times(name: str, tracer, outcomes: list) -> None:
    """Each traced unit's self-time breakdown must account for its wall time.

    The breakdown sums to the root span by construction; comparing it with the
    unit's wall time, timed outside the root span, catches time the spans miss.
    """
    gaps = [abs(sum(self_time_breakdown(tracer, unit).values()) - outcomes[unit].wall_s)
            / outcomes[unit].wall_s
            for unit in sorted({span[UNIT] for span in tracer.spans if span[UNIT] >= 0})]
    worst = max(gaps, default=1.0)
    expect(worst < 0.01, f"{name}: self times add up to each traced unit's wall_s "
                         f"(worst gap {worst:.1e} of it, {len(gaps)} units)")


class BrokenModel:
    """Wraps a workload so its forward model raises or returns NaN."""

    def __init__(self, inner, mode: str):
        self.inner, self.mode = inner, mode
        self.name, self.likelihood, self.n_samples = inner.name, inner.likelihood, inner.n_samples

    def setup(self, tracer=None, unit=-1):
        ctx = self.inner.setup(tracer, unit)
        evaluate = ctx.model.evaluate

        def broken(theta):
            out = evaluate(theta)
            if self.mode == "raise":
                raise SolverError("injected forward-model failure")
            return np.full_like(out, np.nan)

        ctx.model.evaluate = broken
        return ctx

    def run(self, ctx, seed, tracer=None, unit=0):
        return self.inner.run(ctx, seed, tracer, unit)


def main() -> int:
    for full in workloads.WORKLOADS.values():
        work = toy(full)
        values, detail, outcomes, _ = run.run_workload(work, SEED, 0.0, trace=False)
        line = check_result_line(work.name, values, outcomes, trace=False)
        expect(line["correct"] and line["failed"] == 0,
               f"{work.name}: toy units pass their checks {detail['problems']}")

        traced = [run.run_workload(work, SEED, 0.0, trace=True) for _ in range(2)]
        values, detail, outcomes, tracer = traced[0]
        check_result_line(work.name, values, outcomes, trace=True)
        check_self_times(work.name, tracer, outcomes)
        counts = [{m["name"]: v[m["name"]] for m in
                   json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
                   if m["unit"] == "count"} for v, *_ in traced]
        repeat = [(d["forward_evals"], d.get("g_final")) for _, d, *_ in traced]
        expect(counts[0] == counts[1] and repeat[0] == repeat[1],
               f"{work.name}: counts, forward_evals and g_final repeat at one seed")

    for base, mode in (("heat-adaptive", "raise"), ("heat-adaptive", "nan"),
                       ("heat-true-posterior", "raise"), ("heat-true-posterior", "nan")):
        work = BrokenModel(toy(workloads.WORKLOADS[base]), mode)
        with mock.patch("logging.Logger.warning"), mock.patch("logging.Logger.error"):
            values, detail, outcomes, _ = run.run_workload(work, SEED, 0.0, trace=False)
        line = check_result_line(f"{base} ({mode})", values, outcomes, trace=False)
        expect(line["failed"] == line["attempted"] >= 2 and not line["correct"],
               f"{base}: a model that {mode}s counts in fail_ratio "
               f"({line['failed']}/{line['attempted']}: {detail['problems'][:1]})")

    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
