import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

import gpinv
from gpinv.designs import SOBOL_MAX_DIM, DesignBox, latin_hypercube, sobol

UNIT2 = DesignBox([0.0, 0.0], [1.0, 1.0])


class TestDesignBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            DesignBox([0.0], [0.0])
        with pytest.raises(ValueError):
            DesignBox([0.0, 0.0], [1.0])

    def test_from_unit_and_contains(self):
        box = DesignBox([-2.0, 0.0], [2.0, 10.0])
        pts = box.from_unit(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]))
        np.testing.assert_allclose(pts, [[-2, 0], [2, 10], [0, 5]])
        assert np.all(box.contains(pts))

    def test_sample_is_uniform_in_box(self):
        box = DesignBox([-2.0, 0.0, 5.0], [2.0, 10.0, 5.5])
        pts = box.sample(np.random.default_rng(3), 500)
        expected = box.lower + (box.upper - box.lower) * np.random.default_rng(3).random((500, 3))
        np.testing.assert_array_equal(pts, expected)
        assert np.all(box.contains(pts))

    def test_clip(self):
        box = DesignBox([0.0], [1.0])
        np.testing.assert_allclose(box.clip(np.array([[-1.0], [2.0]])), [[0.0], [1.0]])


class TestLatinHypercube:
    def test_single_point_inside(self):
        box = DesignBox([3.0, -1.0], [4.0, 1.0])
        pts = latin_hypercube(1, box, seed=0)
        assert pts.shape == (1, 2)
        assert box.contains(pts)[0]

    def test_four_point_stratification(self):
        pts = latin_hypercube(4, UNIT2, seed=1)
        for j in range(2):
            strata = np.floor(pts[:, j] * 4).astype(int)
            assert sorted(strata) == [0, 1, 2, 3]

    def test_seed_reproducibility(self):
        a = latin_hypercube(10, UNIT2, seed=7)
        b = latin_hypercube(10, UNIT2, seed=7)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, latin_hypercube(10, UNIT2, seed=8))

    @given(n=st.integers(1, 40), p=st.integers(1, 5), seed=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_marginal_stratification_property(self, n, p, seed):
        box = DesignBox(np.zeros(p), np.ones(p))
        pts = latin_hypercube(n, box, seed=seed)
        assert np.all(box.contains(pts))
        for j in range(p):
            strata = np.minimum(np.floor(pts[:, j] * n).astype(int), n - 1)
            assert sorted(strata) == list(range(n))

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            latin_hypercube(0, UNIT2, seed=0)


class TestSobol:
    def test_first_point_is_lower_corner(self):
        box = DesignBox([2.0, -3.0], [5.0, 4.0])
        pts = sobol(4, box, skip=0)
        np.testing.assert_array_equal(pts[0], [2.0, -3.0])

    def test_skip_advances_sequence(self):
        full = sobol(8, UNIT2, skip=0)
        tail = sobol(4, UNIT2, skip=4)
        np.testing.assert_array_equal(full[4:], tail)

    def test_deterministic_across_calls(self):
        np.testing.assert_array_equal(sobol(16, UNIT2), sobol(16, UNIT2))

    def test_nine_dim_500_points_strictly_inside_after_skip(self):
        lower = np.array([0.0, 0.0, 0.0, 0.8, 0.0, 0.5, 0.6, 0.0, 0.0])
        upper = np.array([1.0, 1.0, 1.0, 1.8, 1.0, 1.5, 1.6, 1.0, 1.0])
        box = DesignBox(lower, upper)
        pts = sobol(500, box, skip=1)
        assert pts.shape == (500, 9)
        assert np.all(pts > lower) and np.all(pts < upper)

    def test_discrepancy_beats_uniform(self):
        pts = sobol(256, UNIT2)
        sobol_disc = qmc.discrepancy(pts, method="L2-star")
        rng = np.random.default_rng(0)
        uniform_discs = [
            qmc.discrepancy(rng.random((256, 2)), method="L2-star") for _ in range(20)
        ]
        assert sobol_disc < np.median(uniform_discs)

    @pytest.mark.parametrize("d", range(1, SOBOL_MAX_DIM + 1))
    def test_matches_scipy_unscrambled(self, d):
        box = DesignBox(np.linspace(-2.0, 1.0, d), np.linspace(0.5, 7.0, d))
        for n, skip in [(1, 0), (16, 2), (50, 1), (100, 51), (500, 1), (1024, 1)]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # balance warning for n != 2^m
                engine = qmc.Sobol(d, scramble=False)
                if skip:
                    engine.fast_forward(skip)
                expected = box.from_unit(engine.random(n))
            np.testing.assert_array_equal(sobol(n, box, skip=skip), expected)

    def test_indices_outside_the_sequence_rejected(self):
        with pytest.raises(ValueError):
            sobol(1, UNIT2, skip=-1)
        with pytest.raises(ValueError):
            sobol(2, UNIT2, skip=2**30 - 1)

    def test_dimension_capability_error(self):
        box = DesignBox(np.zeros(25), np.ones(25))
        with pytest.raises(ValueError, match="up to d=21, got d=25"):
            sobol(4, box)

    def test_points_inside_closed_box(self):
        pts = sobol(128, UNIT2)
        assert np.all(UNIT2.contains(pts))


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, gpinv, gpinv.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(gpinv.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_loads_no_scipy():
    code = ("import sys, gpinv, gpinv.cli; "
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(gpinv.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
