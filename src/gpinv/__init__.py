"""Adaptive Gaussian-process surrogates for Bayesian inverse problems.

Build a fully Bayesian emulator of an expensive forward model, grow its
training design by maximizing the expected improvement in fit to the observed
data, and sample the resulting surrogate posterior instead of the true one.
"""

from .acquisition import (
    AcquisitionState,
    expected_improvement,
    expected_improvement_smoothed,
    maximize_acquisition,
    smoothed_pos,
)
from .adaptive import AdaptiveConfig, AdaptiveResult, RunRecord, run_adaptive
from .designs import DesignBox, latin_hypercube, sobol
from .forward_models import (
    DarcyPermeability2D,
    ForwardModel,
    GridSolverConfig,
    HeatSource2D,
    Rational1D,
    generate_measurements,
)
from .gp import GpEnsemble, TrainingSet, normalize_outputs
from .likelihood import MeasurementModel
from .mcmc import WalkerEnsemble, sample_hyperposterior, stretch_step
from .posterior import HpdSummary, PosteriorSampleSet, hpd_region, sample_posterior

__version__ = "0.1.0"
