import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpinv
import gpinv.adaptive
import gpinv.cli
from gpinv.acquisition import AcquisitionResult
from gpinv.adaptive import VOLATILE_FIELD, IterationRecord
from gpinv.cli import build_parser, main, read_csv, write_csv

README = Path(__file__).resolve().parents[1] / "README.md"
HEAT_CFG = str(README.parent / "configs" / "heat.cfg")

FAST_ONE_D = """
[experiment]
name = one_d

[measurement]
meas_seed = 101

[adaptive]
n_max = 4

[mcmc]
n_walkers = 20
n_steps = 40

[acquisition]
n_starts = 7

[posterior]
posterior_walkers = 10
"""


@pytest.fixture
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_ONE_D)
    return str(path)


def manifest_hashes(out_dir):
    doc = json.loads((out_dir / "manifest.json").read_text())
    return {e["name"]: e["sha256"] for e in doc["files"]}, doc


class TestRunAdaptive:
    def test_outputs_and_manifest(self, fast_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["run-adaptive", "--config", fast_cfg, "--seed", "3",
                     "--out", str(out)]) == 0
        for name in ("design.csv", "hyperposterior.csv", "record.json",
                     "timings.csv", "measurement.csv", "manifest.json"):
            assert (out / name).exists(), name
        hashes, doc = manifest_hashes(out)
        assert doc["status"] == "complete"
        assert set(hashes) >= {"design.csv", "record.json"}

    def test_duplicate_point_run_is_partial(self, fast_cfg, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(gpinv.adaptive, "maximize_acquisition", lambda state, starts:
                            AcquisitionResult(state.ensemble.training.inputs[0].copy(), 1.0))
        monkeypatch.setattr(gpinv.adaptive, "expected_improvement",
                            lambda thetas, state: np.array([state.g_min]))
        out = tmp_path / "run"
        assert main(["run-adaptive", "--config", fast_cfg, "--out", str(out)]) == 0
        _, doc = manifest_hashes(out)
        assert doc["status"] == "partial"
        assert "terminated: duplicate-point" in capsys.readouterr().out

    def test_rerun_reproduces_hashes(self, fast_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run-adaptive", "--config", fast_cfg, "--seed", "5", "--out", str(out1)])
        main(["run-adaptive", "--config", fast_cfg, "--seed", "5", "--out", str(out2)])
        h1, _ = manifest_hashes(out1)
        h2, _ = manifest_hashes(out2)
        for name in h1:
            if name == "timings.csv":  # wall-clock, explicitly volatile
                continue
            assert h1[name] == h2[name], name

    def test_refuses_nonempty_dir(self, fast_cfg, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert main(["run-adaptive", "--config", fast_cfg, "--out", str(out)]) == 2


class TestSamplePosterior:
    def test_surrogate_pipeline(self, fast_cfg, tmp_path):
        run_dir = tmp_path / "run"
        main(["run-adaptive", "--config", fast_cfg, "--seed", "3", "--out", str(run_dir)])
        out = tmp_path / "post"
        assert main(["sample-posterior", "--config", fast_cfg, "--likelihood", "surrogate",
                     "--run-dir", str(run_dir), "--n", "500", "--seed", "1",
                     "--out", str(out)]) == 0
        header, data = read_csv(out / "samples.csv")
        assert header == ["theta_1"]
        assert data.shape == (500, 1)
        meta = json.loads((out / "sampling_metadata.json").read_text())
        assert meta["source"] == "surrogate"

    def test_true_likelihood(self, fast_cfg, tmp_path):
        out = tmp_path / "post"
        assert main(["sample-posterior", "--config", fast_cfg, "--likelihood", "true",
                     "--n", "300", "--seed", "2", "--out", str(out)]) == 0
        _, data = read_csv(out / "samples.csv")
        assert data.shape == (300, 1)

    def test_surrogate_requires_run_dir(self, fast_cfg, tmp_path):
        assert main(["sample-posterior", "--config", fast_cfg, "--likelihood", "surrogate",
                     "--n", "100", "--out", str(tmp_path / "x")]) == 2

    def test_run_dir_of_another_experiment_is_a_usage_error(self, tmp_path, capsys):
        run_dir = tmp_path / "one_d_run"
        run_dir.mkdir()
        write_csv(run_dir / "design.csv", ["theta_1", "f_1"], [[-2.0, 2.1], [0.5, 3.2], [3.0, 0.0]])
        write_csv(run_dir / "hyperposterior.csv", ["sigma_c", "ell_1"], [[1.0, 2.0], [0.8, 1.5]])
        out = tmp_path / "post"
        assert main(["sample-posterior", "--experiment", "heat", "--run-dir", str(run_dir),
                     "--n", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--run-dir" in err and "1 inputs and 1 outputs" in err and "Traceback" not in err
        assert not out.exists()


class TestHpd:
    def test_reports_intervals(self, tmp_path, capsys):
        samples = np.random.default_rng(0).normal(0, 1, (5000, 2))
        path = tmp_path / "samples.csv"
        with open(path, "w") as fh:
            fh.write("theta_1,theta_2\n")
            np.savetxt(fh, samples, delimiter=",")
        out = tmp_path / "hpd.csv"
        assert main(["hpd", "--samples", str(path), "--alpha", "0.05",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "theta_1" in printed and "theta_2" in printed
        _, bounds = read_csv(out)
        assert bounds.shape == (2, 2)
        np.testing.assert_allclose(bounds[:, 0], -1.96, atol=0.15)

    def test_missing_file(self, tmp_path):
        assert main(["hpd", "--samples", str(tmp_path / "nope.csv")]) == 2


class TestCompareDesigns:
    def test_tables_schema(self, fast_cfg, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare-designs", "--config", fast_cfg, "--runs", "2",
                     "--seed", "0", "--workers", "1", "--out", str(out)]) == 0
        header, table = read_csv(out / "adaptive_table.csv")
        assert header == ["run", "final_n_train", "final_g_min",
                          "final_rel_improvement", "threshold_met", "final_hellinger"]
        assert table.shape == (2, 6)
        assert np.all(table[:, 1] >= 3)
        header2, lhs = read_csv(out / "lhs_table.csv")
        assert header2 == ["run", "n_train", "g_min", "hellinger"]
        assert (out / "record_run01.json").exists()
        for distances in (table[:, -1], lhs[:, -1]):
            assert np.all((distances >= 0.0) & (distances <= 1.0))

    def test_parallel_workers_match_sequential(self, fast_cfg, tmp_path):
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        main(["compare-designs", "--config", fast_cfg, "--runs", "2", "--seed", "4",
              "--workers", "1", "--out", str(out1)])
        main(["compare-designs", "--config", fast_cfg, "--runs", "2", "--seed", "4",
              "--workers", "2", "--out", str(out2)])
        for name in ("adaptive_table.csv", "lhs_table.csv"):
            assert (out1 / name).read_text() == (out2 / name).read_text(), name

    def test_rerun_reproduces_hashes(self, fast_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["compare-designs", "--config", fast_cfg, "--runs", "1", "--seed", "2",
                  "--workers", "1", "--out", str(out)])
        assert manifest_hashes(out1)[0] == manifest_hashes(out2)[0]

    def test_forced_rerun_lists_only_its_records(self, fast_cfg, tmp_path):
        out = tmp_path / "cmp"
        out.mkdir()
        (out / "record_run02.json").write_text("{}")  # left by an earlier study of two runs
        assert main(["compare-designs", "--config", fast_cfg, "--runs", "1", "--workers", "1",
                     "--out", str(out), "--force"]) == 0
        hashes, _ = manifest_hashes(out)
        assert sorted(hashes) == ["adaptive_table.csv", "lhs_table.csv", "record_run01.json"]
        assert (out / "record_run02.json").read_text() == "{}"

    def test_no_grid_distance_above_two_dimensions(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "perm.cfg"
        cfg.write_text("[experiment]\nname = permeability\n[adaptive]\nn_max = 1\n"
                       "[mcmc]\nn_walkers = 20\nn_steps = 10\n[acquisition]\nn_starts = 2\n")

        def unused(*args, **kwargs):
            raise AssertionError("no grid density or LHS fit for p > 2")

        monkeypatch.setattr(gpinv.cli, "grid_points", unused)
        monkeypatch.setattr(gpinv.cli, "sample_hyperposterior", unused)
        out = tmp_path / "cmp"
        assert main(["compare-designs", "--config", str(cfg), "--runs", "1",
                     "--workers", "1", "--out", str(out)]) == 0
        assert np.isnan(read_csv(out / "adaptive_table.csv")[1][0, -1])
        assert np.isnan(read_csv(out / "lhs_table.csv")[1][0, -1])
        assert "nan adaptive, nan LHS" in capsys.readouterr().out


class TestGenDesign:
    def test_lhs_with_bounds(self, tmp_path):
        out = tmp_path / "design.csv"
        assert main(["gen-design", "--bounds", "0,1 0,2", "--kind", "lhs",
                     "--n", "8", "--seed", "1", "--out", str(out)]) == 0
        header, pts = read_csv(out)
        assert header == ["theta_1", "theta_2"]
        assert pts.shape == (8, 2)
        assert pts[:, 1].max() <= 2.0

    def test_sobol_from_experiment(self, tmp_path):
        out = tmp_path / "design.csv"
        assert main(["gen-design", "--experiment", "heat", "--kind", "sobol",
                     "--n", "4", "--skip", "1", "--out", str(out)]) == 0
        _, pts = read_csv(out)
        assert pts.shape == (4, 2)

    def test_needs_some_bounds(self, tmp_path):
        assert main(["gen-design", "--kind", "lhs", "--n", "4",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestEvalModel:
    def test_rational(self, fast_cfg, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval-model", "--config", fast_cfg, "--theta", "2.0",
                     "--out", str(out)]) == 0
        _, vals = read_csv(out / "outputs.csv")
        assert vals[0, 0] == pytest.approx(0.0)

    def test_heat_field_dump(self, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval-model", "--experiment", "heat", "--theta", "0.25,0.75",
                     "--dump-field", "--out", str(out)]) == 0
        assert (out / "outputs.csv").exists()
        assert (out / "field_t0.1.txt").exists()
        assert (out / "field_t0.2.txt").exists()
        first = (out / "field_t0.2.txt").read_text().splitlines()[0]
        assert first == "32 32"

    def test_heat_fine_field_dump(self, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval-model", "--experiment", "heat", "--theta", "0.25,0.75", "--fine",
                     "--dump-field", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("field*")) == ["field_t0.1.txt", "field_t0.2.txt"]
        assert (out / "field_t0.1.txt").read_text().splitlines()[0] == "128 128"

    def test_forced_rerun_lists_only_its_files(self, tmp_path):
        out = tmp_path / "eval"
        assert main(["eval-model", "--experiment", "heat", "--theta", "0.25,0.75",
                     "--dump-field", "--out", str(out)]) == 0
        assert main(["eval-model", "--experiment", "one_d", "--theta", "1",
                     "--out", str(out), "--force"]) == 0
        hashes, _ = manifest_hashes(out)
        assert sorted(hashes) == ["outputs.csv"]
        assert (out / "field_t0.1.txt").exists() and (out / "field_t0.2.txt").exists()

    def test_permeability_field_dump(self, tmp_path):
        out = tmp_path / "eval"
        theta = "0.3,0.6,0.8,1.5,0.8,1.0,1.0,0.3,0.3"
        assert main(["eval-model", "--experiment", "permeability", "--theta", theta,
                     "--dump-field", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("field*")) == ["field.txt"]
        lines = (out / "field.txt").read_text().splitlines()
        assert lines[0] == "32 32" and len(lines) == 33


class TestErrors:
    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment]\nname = nonsense\n")
        assert main(["run-adaptive", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run-adaptive", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_no_spec_at_all(self, tmp_path):
        assert main(["run-adaptive", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv, option", [
        (["gen-design", "--bounds", "0,1,2", "--n", "4"], "--bounds"),
        (["gen-design", "--bounds", "a,b", "--n", "4"], "--bounds"),
        (["gen-design", "--bounds", "1,0", "--n", "4"], "--bounds"),
        (["gen-design", "--experiment", "heat", "--n", "0"], "--n"),
        (["gen-design", "--experiment", "heat", "--n", "4", "--seed", "-1"], "--seed"),
        (["gen-design", "--experiment", "permeability", "--kind", "sobol", "--n", "4",
          "--skip", "-1"], "--skip"),
        (["eval-model", "--experiment", "heat", "--theta", "abc"], "--theta"),
        (["eval-model", "--experiment", "heat", "--theta", "0.5"], "--theta"),
        (["eval-model", "--experiment", "heat", "--theta", "inf 0.5"], "--theta"),
        (["eval-model", "--experiment", "heat", "--theta", "0.5,nan"], "--theta"),
        (["sample-posterior", "--experiment", "heat", "--n", "0"], "--n"),
        (["sample-posterior", "--experiment", "heat", "--n", "10", "--seed", "-1"], "--seed"),
        (["compare-designs", "--experiment", "one_d", "--runs", "0"], "--runs"),
        (["run-adaptive", "--experiment", "one_d", "--seed", "-1"], "--seed"),
        (["compare-designs", "--experiment", "one_d", "--workers", "-1"], "--workers"),
        (["gen-design", "--bounds", " ", "--n", "4"], "--bounds"),
        (["gen-design", "--bounds", "-inf,inf 0,1", "--n", "4"], "--bounds"),
        (["gen-design", "--experiment", "one_d", "--bounds", "0,1", "--n", "4"], "--bounds"),
        (["eval-model", "--experiment", "one_d", "--theta", "2", "--dump-field"], "--dump-field"),
        (["gen-design", "--bounds", " ".join(["0,1"] * 22), "--kind", "sobol", "--n", "4"], "--bounds"),
        (["gen-design", "--experiment", "heat", "--n", "4", "--skip", "7"], "--skip"),
        (["gen-design", "--experiment", "heat", "--kind", "sobol", "--n", "4", "--seed", "5"], "--seed"),
        (["sample-posterior", "--experiment", "heat", "--likelihood", "true", "--n", "10",
          "--run-dir", "no-such-run"], "--run-dir"),
        (["eval-model", "--config", HEAT_CFG, "--experiment", "one_d", "--theta", "0.25,0.75"],
         "--config and --experiment"),
        (["run-adaptive", "--config", HEAT_CFG, "--experiment", "heat"], "--config and --experiment"),
        (["gen-design", "--config", HEAT_CFG, "--experiment", "heat", "--n", "4"],
         "--config and --experiment"),
    ])
    def test_malformed_value_is_a_usage_error(self, argv, option, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert option in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-adaptive", "compare-designs", "sample-posterior"])
    @pytest.mark.parametrize("body, named", [
        ("[mcmc]\nn_step = 5\n", "mcmc.n_step"),
        ("model_kind = darcy\n", "experiment.model_kind"),
        ("[acquisition]\nn_starts = 0\n", "n_starts"),
        ("[mcmc]\nn_walkers = 13\n", "n_walkers"),
        ("[mcmc]\nn_steps = -3\n", "n_steps must be at least 1, got -3"),
        ("[mcmc]\n[mcmc]\n", "mcmc"),
        ("[measurement]\nnoise_sigma = 0\n", "noise_sigma must be positive, got 0.0"),
        ("[measurement]\nnoise_sigma = inf\n", "noise_sigma must be finite, got inf"),
        ("[measurement]\nnoise_sigma = 0.1%\n", "measurement.noise_sigma"),
        ("[hyper_prior]\nupper = inf 5\n", "[hyper_prior] bounds must be finite"),
        ("[bounds]\nlower = -inf\n", "[bounds] bounds must be finite"),
        ("[hyper_prior]\nlower = 1e-8 1e-8 1e-8\nupper = 12 5 5\n",
         "hyper_prior has 3 bounds, need 2"),
        ("[measurement]\ntheta_true = 2.41 1.0\n", "theta_true (2.41, 1.0)"),
        ("[measurement]\ntheta_true = inf\n", "theta_true (inf,) must be finite"),
        ("[posterior]\nposterior_walkers = 3\n",
         "posterior_walkers must be even and at least 2, got 3"),
        ("[measurement]\nmeas_seed = -1\n", "meas_seed must be at least 0, got -1"),
        ("[adaptive]\nn_initial = 0\n", "n_initial must be at least 1, got 0"),
        ("[adaptive]\nn_max = 0\n", "n_max must be at least 1, got 0"),
        ("[measurement]\ntheta_true = 7\n", "theta_true (7.0,) lies outside the [bounds] box"),
        ("[bounds]\nlower = 0 0\nupper = 1 1\n[hyper_prior]\nlower = 1e-8 1e-8 1e-8\n"
         "upper = 2 1 1\n[measurement]\ntheta_true = 0.25 0.75\n",
         "bounds.lower has 2 values, need 1 for one_d"),
    ])
    def test_bad_config_is_a_usage_error(self, command, body, named, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[experiment]\nname = one_d\n" + body)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("run_dir", [None, "absent", "empty", "nan-design", "inf-length"])
    def test_bad_run_dir_is_a_usage_error(self, run_dir, fast_cfg, tmp_path, capsys, monkeypatch):
        argv = ["sample-posterior", "--config", fast_cfg, "--n", "10"]
        if run_dir is not None:
            (tmp_path / "empty").mkdir()
            for name, output, length in [("nan-design", np.nan, 2.0), ("inf-length", 3.2, np.inf)]:
                (tmp_path / name).mkdir()
                write_csv(tmp_path / name / "design.csv", ["theta_1", "f_1"],
                          [[-2.0, 2.1], [0.5, output], [3.0, 0.0]])
                write_csv(tmp_path / name / "hyperposterior.csv", ["sigma_c", "ell_1"],
                          [[1.0, length], [0.8, 1.5]])
            argv += ["--run-dir", str(tmp_path / run_dir)]
        solved = []
        monkeypatch.setattr("gpinv.experiments.ExperimentSpec.measurement",
                            lambda spec, model: solved.append(spec))
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert "--run-dir" in capsys.readouterr().err
        assert not out.exists() and not solved

    @pytest.mark.parametrize("rows, alpha, option", [(500, "1.5", "--alpha"), (5, "0.05", "--samples")])
    def test_hpd_bad_input_is_a_usage_error(self, rows, alpha, option, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("theta_1\n" + "\n".join(str(v) for v in range(rows)) + "\n")
        assert main(["hpd", "--samples", str(samples), "--alpha", alpha]) == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_hpd_non_finite_samples_are_a_usage_error(self, bad, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        values = [str(v) for v in range(200)]
        values[17] = bad
        samples.write_text("theta_1\n" + "\n".join(values) + "\n")
        out = tmp_path / "h.csv"
        assert main(["hpd", "--samples", str(samples), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--samples" in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, target", [
        (["run-adaptive", "--config", "CFG"], "file"),
        (["sample-posterior", "--config", "CFG", "--likelihood", "true", "--n", "10"], "file"),
        (["compare-designs", "--config", "CFG", "--runs", "1"], "file"),
        (["eval-model", "--config", "CFG", "--theta", "2"], "file"),
        (["run-adaptive", "--config", "CFG"], "file/run"),
        (["gen-design", "--bounds", "0,1", "--n", "4"], "file/x.csv"),
        (["gen-design", "--bounds", "0,1", "--n", "4"], "dir"),
    ])
    def test_unwritable_out_is_a_usage_error(self, argv, target, fast_cfg, tmp_path, capsys):
        (tmp_path / "file").write_text("x")
        (tmp_path / "dir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        argv = [fast_cfg if arg == "CFG" else arg for arg in argv]
        assert main(argv + ["--out", str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before


class TestClosedStdout:
    """A reader that has already exited: the command still writes its files and exits 0."""

    @staticmethod
    def run(argv, unbuffered):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(gpinv.cli.__file__).parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run([sys.executable, "-m", "gpinv.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_gen_design(self, unbuffered, tmp_path):
        out = tmp_path / "x.csv"
        done = self.run(["gen-design", "--bounds", "0,1 0,1", "--n", "4", "--out", str(out)], unbuffered)
        assert done.returncode == 0 and done.stderr == ""
        assert read_csv(out)[1].shape == (4, 2)

    def test_hpd_still_writes_out(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        write_csv(samples, ["theta_1"], np.random.default_rng(3).normal(size=(500, 1)))
        argv = ["hpd", "--samples", str(samples), "--out"]
        assert main(argv + [str(tmp_path / "open.csv")]) == 0
        done = self.run(argv + [str(tmp_path / "closed.csv")], unbuffered=True)
        assert done.returncode == 0 and done.stderr == ""
        assert (tmp_path / "closed.csv").read_bytes() == (tmp_path / "open.csv").read_bytes()


def test_readme_recipes_parse():
    """Every `gpinv ...` line in README's code blocks, continuations joined, parses."""
    blocks = re.findall(r"```[a-z]*\n(.*?)```", README.read_text(), flags=re.S)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("gpinv ")]
    assert commands
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_readme_record_keys_are_the_iteration_fields():
    """README's per-iteration record.json keys are IterationRecord's fields, in order."""
    listed = re.search(r"per-iteration\s+`([^`]+)`", README.read_text()).group(1)
    keys = [f.name for f in dataclasses.fields(IterationRecord) if f.name != VOLATILE_FIELD]
    assert listed.split(", ") == keys


def test_readme_constants_are_defined():
    """Every backticked upper-case name in README (`NAME` or `NAME = value`) is
    defined by some gpinv module, with README's value where README gives one."""
    modules = [importlib.import_module(f"gpinv.{info.name}")
               for info in pkgutil.iter_modules(gpinv.__path__)]
    named = re.findall(r"`([A-Z][A-Z0-9_]*[A-Z0-9])(?: = ([^`]+))?`", README.read_text())
    assert named
    for name, value in named:
        owners = [module for module in modules if name in vars(module)]
        assert owners, f"README names `{name}`, which no gpinv module defines"
        if value:
            assert any(getattr(module, name) == ast.literal_eval(value) for module in owners), \
                f"README gives `{name} = {value}`, but gpinv defines {getattr(owners[0], name)!r}"
