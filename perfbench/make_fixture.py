#!/usr/bin/env python3
"""Write the stored heat emulator used by the heat-surrogate-posterior workload.

Runs `gpinv run-adaptive --config configs/heat.cfg --seed 0` into a temporary
directory and keeps its design.csv and hyperposterior.csv, so the fixture is in
run-adaptive's own format and the workload rebuilds it with the same loader
`sample-posterior --likelihood surrogate` uses. Run from the repository root:

    python3 perfbench/make_fixture.py

The fixture is checked in and regenerated only on purpose: a change to
run_adaptive must not also change the surrogate workload's input.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "heat-seed0"
FILES = ("design.csv", "hyperposterior.csv")


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from gpinv.cli import main as gpinv_main

    with tempfile.TemporaryDirectory() as tmp:
        code = gpinv_main(["run-adaptive", "--config", str(ROOT / "configs" / "heat.cfg"),
                           "--seed", "0", "--out", tmp, "--force"])
        if code != 0:
            return code
        FIXTURE.mkdir(parents=True, exist_ok=True)
        for name in FILES:
            shutil.copyfile(Path(tmp) / name, FIXTURE / name)
    print(f"fixture written to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
