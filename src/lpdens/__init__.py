"""Boundary-adaptive local polynomial density estimation.

Density and distribution derivatives from local polynomial fits to the
empirical distribution function, with automatic variance estimation,
MSE-optimal bandwidth selection, a density-discontinuity test at a known
cutoff, and a reproducible Monte Carlo harness.
"""

from .bandwidth import (
    BandwidthSelection,
    closed_form_h,
    mse_bandwidth,
    preliminary_bandwidth,
)
from .density import DensityEstimate, default_grid, estimate_grid
from .errors import LpDensError
from .kernels import BasisKind, EvalRegion, classify_region, moments
from .lpfit import LocalFit, derivative_estimate, fit_local
from .maniptest import (
    ManipulationTestResult,
    cutoff_test,
    diff_mse_bandwidth,
    rbc_test,
)
from .sample import Sample, edf, load_csv, load_sample, split_at_cutoff
from .simulation import SimDesign, get_dgp, run_design, true_mse_bandwidth
from .variance import (
    VarianceEstimate,
    difference_se,
    gamma_hat,
    jackknife_gamma,
    jackknife_se,
    plugin_se,
    standard_error,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthSelection",
    "BasisKind",
    "DensityEstimate",
    "EvalRegion",
    "LocalFit",
    "LpDensError",
    "ManipulationTestResult",
    "Sample",
    "SimDesign",
    "VarianceEstimate",
    "classify_region",
    "closed_form_h",
    "cutoff_test",
    "default_grid",
    "derivative_estimate",
    "diff_mse_bandwidth",
    "difference_se",
    "edf",
    "estimate_grid",
    "fit_local",
    "gamma_hat",
    "get_dgp",
    "jackknife_gamma",
    "jackknife_se",
    "load_csv",
    "load_sample",
    "moments",
    "mse_bandwidth",
    "plugin_se",
    "preliminary_bandwidth",
    "rbc_test",
    "run_design",
    "split_at_cutoff",
    "standard_error",
    "true_mse_bandwidth",
]
