"""Certified capacity bounds for single-mode bosonic thermal noise channels.

The closed-form layer (`gfunc`, `gaussian_core`, `bounds`) evaluates the
coherent-state lower bound and the decomposition-based upper bound on
the classical capacity, certifying that they differ by less than
1/ln 2 bits.  The numerical layer (`fock_oracle`, `chi_opt`) checks the
same quantities by direct simulation in truncated Fock space and
searches finite input ensembles for larger Holevo quantities.  `cli`
exposes everything as a command-line tool.  Imported before NumPy, the
package sets OPENBLAS/OMP/MKL_NUM_THREADS to 1 unless already set: its
matrices are small, and one thread runs them fastest and bit for bit.
"""

import os
import sys

_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if "numpy" not in sys.modules:
    for _variable in _BLAS_VARIABLES:
        os.environ.setdefault(_variable, "1")

from .gfunc import (
    delta,
    delta_limit,
    delta_prime,
    delta_second,
    g,
    g_prime,
    g_second,
)
from .gaussian_core import (
    AmplifierParams,
    ChannelParams,
    CovarianceMatrix,
    Decomposition,
    apply_amplifier,
    apply_thermal,
    decompose,
    mean_photons,
    random_covariance,
    thermal_covariance,
)
from .bounds import (
    BoundReport,
    additive_extension_upper,
    gap,
    holevo_lower,
    pure_loss_capacity,
    refined_gap_bound,
    report,
)
from .fock_oracle import (
    BudgetError,
    ChiReport,
    FockDensityMatrix,
    GridSpec,
    apply_channel,
    beamsplitter_blocks,
    coherent_state,
    gaussian_ensemble_report,
    mean_photon_number,
    thermal_state,
    verify_decomposition_fock,
    von_neumann_entropy,
)
from .chi_opt import (
    Ensemble,
    OptimizationResult,
    OptimizerConfig,
    chi,
    optimize,
)

__version__ = "0.1.0"

__all__ = [
    "g",
    "g_prime",
    "g_second",
    "delta",
    "delta_prime",
    "delta_second",
    "delta_limit",
    "ChannelParams",
    "AmplifierParams",
    "Decomposition",
    "CovarianceMatrix",
    "apply_thermal",
    "apply_amplifier",
    "decompose",
    "thermal_covariance",
    "mean_photons",
    "random_covariance",
    "BoundReport",
    "holevo_lower",
    "additive_extension_upper",
    "pure_loss_capacity",
    "gap",
    "refined_gap_bound",
    "report",
    "BudgetError",
    "FockDensityMatrix",
    "GridSpec",
    "ChiReport",
    "thermal_state",
    "coherent_state",
    "beamsplitter_blocks",
    "apply_channel",
    "von_neumann_entropy",
    "mean_photon_number",
    "gaussian_ensemble_report",
    "verify_decomposition_fock",
    "Ensemble",
    "OptimizerConfig",
    "OptimizationResult",
    "chi",
    "optimize",
    "__version__",
]
