import configparser
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from gpinv.adaptive import make_starts
from gpinv.cli import main
from gpinv.experiments import (
    CONFIG_KEYS,
    EXPERIMENTS,
    HEAT,
    ONE_D,
    PERMEABILITY,
    ExperimentSpec,
    load_experiment,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestBuiltins:
    def test_registry(self):
        assert set(EXPERIMENTS) == {"one_d", "heat", "permeability"}

    def test_one_d_protocol_values(self):
        assert ONE_D.bounds.lower[0] == -6.0 and ONE_D.bounds.upper[0] == 6.0
        np.testing.assert_allclose(ONE_D.hyper_prior.upper, [12.0, 5.0])
        assert ONE_D.theta_true == (2.41,)
        assert ONE_D.noise_sigma == 0.01
        assert ONE_D.n_walkers == 100
        assert ONE_D.n_starts == 25
        np.testing.assert_array_equal(make_starts(ONE_D.adaptive_config(seed=0)).ravel(),
                                      np.linspace(-6.0, 6.0, 25))

    def test_heat_protocol_values(self):
        np.testing.assert_allclose(HEAT.hyper_prior.upper, [2.0, 1.0, 1.0])
        assert HEAT.theta_true == (0.25, 0.75)
        assert HEAT.noise_sigma == 0.1
        assert HEAT.n_initial == 4 and HEAT.n_max == 11
        assert HEAT.n_starts == 50 and HEAT.extra_starts == 100
        model = HEAT.build_model()
        assert model.cfg.nx == 32 and model.fine_cfg.nx == 128
        assert model.cfg.dt == 0.01 and model.fine_cfg.dt == 0.0025

    def test_permeability_protocol_values(self):
        assert PERMEABILITY.n_initial == 18 and PERMEABILITY.n_max == 20
        assert PERMEABILITY.n_starts == 500
        np.testing.assert_allclose(PERMEABILITY.hyper_prior.upper, 4.0)
        assert PERMEABILITY.bounds.dim == 9
        np.testing.assert_allclose(
            PERMEABILITY.bounds.lower, [0, 0, 0, 0.8, 0, 0.5, 0.6, 0, 0])

    def test_adaptive_config_wiring(self):
        cfg = ONE_D.adaptive_config(seed=1)
        np.testing.assert_array_equal(cfg.initial_design, [[-4.0], [0.0], [4.0]])
        five = dataclasses.replace(ONE_D, n_initial=5).adaptive_config(seed=1)
        np.testing.assert_allclose(five.initial_design, [[-4.8], [-2.4], [0.0], [2.4], [4.8]])
        assert not cfg.confirm
        cfg_heat = HEAT.adaptive_config(seed=1)
        assert cfg_heat.initial_design.shape == (4, 2)
        assert cfg_heat.confirm

    def test_measurement_is_seeded(self):
        model = ONE_D.build_model()
        a = ONE_D.measurement(model)
        b = ONE_D.measurement(model)
        np.testing.assert_array_equal(a.z, b.z)


class TestConfigLoading:
    def test_checked_in_configs_match_builtins(self):
        for name, path in (("one_d", "configs/one_d.cfg"),
                           ("heat", "configs/heat.cfg"),
                           ("permeability", "configs/permeability.cfg")):
            spec = load_experiment(path)
            assert spec == EXPERIMENTS[name], name

    def test_overrides(self, tmp_path):
        cfg = tmp_path / "o.cfg"
        cfg.write_text("""
[experiment]
name = one_d
[adaptive]
n_max = 3
[mcmc]
n_walkers = 22
[bounds]
lower = -2
upper = 2
""")
        spec = load_experiment(cfg)
        assert spec.n_max == 3
        assert spec.n_walkers == 22
        assert spec.bounds.lower[0] == -2.0

    def test_unknown_name_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[experiment]\nname = mystery\n")
        with pytest.raises(ValueError, match="unknown experiment"):
            load_experiment(cfg)

    @pytest.mark.parametrize("changes, message", [
        ({"name": "mystery"}, "unknown experiment 'mystery'"),
        ({"name": "heat"}, "bounds.lower has 1 values, need 2 for heat"),
    ])
    def test_spec_checks_name_against_model(self, changes, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ONE_D, **changes)

    @pytest.mark.parametrize("section, lines", [
        ("hyper_prior", "lower = 13 1e-8\n"),
        ("bounds", "lower = 7\n"),
        ("bounds", "upper = 6 7\n"),
    ])
    def test_bad_box_names_its_section(self, tmp_path, capsys, section, lines):
        cfg = tmp_path / "box.cfg"
        cfg.write_text(f"[experiment]\nname = one_d\n[{section}]\n{lines}")
        with pytest.raises(ValueError, match=rf"\[{section}\]"):
            load_experiment(cfg)
        out = tmp_path / "out"
        assert main(["run-adaptive", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"[{section}]" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_experiment(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("section, line", [
        ("posterior", "posterior_samples = 500"),
        ("experiment", "model_kind = darcy"),
        ("experiment", "meas_seed = 5"),
        ("acquisition", "eta = 1e-4"),
        ("acquisition", "starts = sobol"),
        ("solver", "sensor_convention = corners"),
        ("mcmc", "n_step = 5"),
        ("adaptive", "eps_thresh = 0.01"),
        ("adaptive", "eta = 1e-4"),
        ("solver", "solver_nx = 32"),
        ("solver", "solver_ny = 32"),
        ("solver", "solver_dt = 0.01"),
        ("solver", "fine_nx = 128"),
        ("solver", "fine_ny = 128"),
        ("solver", "fine_dt = 0.0025"),
    ])
    def test_unknown_key_rejected(self, tmp_path, section, line):
        cfg = tmp_path / "bad.cfg"
        text = "[experiment]\nname = heat\n"
        cfg.write_text(text + (f"{line}\n" if section == "experiment" else f"[{section}]\n{line}\n"))
        key = line.split(" = ")[0]
        with pytest.raises(ValueError, match=f"unknown config section or key: {section}.{key}"):
            load_experiment(cfg)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[experiment]\nname = heat\n[sampler]\nn_walkers = 10\n")
        with pytest.raises(ValueError, match=r"\[sampler\]"):
            load_experiment(cfg)

    def test_solver_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[experiment]\nname = heat\n[solver]\nsolver_nx = 64\n")
        with pytest.raises(ValueError, match=r"\[solver\]"):
            load_experiment(cfg)

    def test_unparsable_value_names_its_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[experiment]\nname = heat\n[mcmc]\nn_steps = many\n")
        with pytest.raises(ValueError, match="mcmc.n_steps"):
            load_experiment(cfg)


class TestSettingsGuard:
    def test_each_field_has_at_most_one_key(self):
        fields = list(CONFIG_KEYS.values())
        assert len(fields) == len(set(fields))
        assert set(fields) <= {f.name for f in dataclasses.fields(ExperimentSpec)}

    def test_every_field_differs_between_experiments(self):
        # the two exceptions stay settable because the benchmark's toy runs override them
        same = {f.name for f in dataclasses.fields(ExperimentSpec)
                if len({getattr(spec, f.name) for spec in EXPERIMENTS.values()}) == 1}
        assert same == {"n_steps", "posterior_walkers"}

    def test_checked_in_configs_use_only_known_keys(self):
        paths = sorted(CONFIGS.glob("*.cfg"))
        assert paths
        for path in paths:
            parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            parser.read(path)
            for section in parser.sections():
                for key in parser.options(section):
                    assert (section, key) in CONFIG_KEYS, f"{path.name}: {section}.{key}"
