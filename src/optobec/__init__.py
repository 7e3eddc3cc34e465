"""Steady-state toolkit for a driven optomechanical cavity containing an
atomic condensate: mean-field branches and optical bistability, linearized
fluctuation dynamics with algebraic stability, stationary covariances,
cooling figures of merit and bipartite Gaussian entanglement.
"""

from .model import (HBAR, K_B, C_LIGHT, BecParams, CavityParams,
                    DerivedQuantities, DriveParams, MirrorParams,
                    ParameterError, SystemParams, bose_occupation,
                    derive_quantities, drive_rate)
from .steady_state import (BistabilityWindow, BranchColumns, bistability_window,
                           solve_mean_field)
from .linear_dynamics import (NumericalError, characteristic_polynomial,
                              diffusion_matrix, drift_matrix, is_stable,
                              solve_lyapunov)
from .gaussian_measures import (ATOM_FIELD, MIRROR_ATOM, MIRROR_FIELD,
                                bogoliubov_excitations, log_negativity,
                                mirror_phonons, reduce_bipartition)
from .sweep import (SweepSpec, SweepTable, Variant, emit, evaluate_branches,
                    run_sweep)
from .presets import FIGURE_IDS, baseline_params, figure_preset
from .config import ConfigError, load_config

__version__ = "0.1.0"

__all__ = [
    "HBAR", "K_B", "C_LIGHT",
    "BecParams", "CavityParams", "DerivedQuantities", "DriveParams",
    "MirrorParams", "ParameterError", "SystemParams", "bose_occupation",
    "derive_quantities", "drive_rate",
    "BistabilityWindow", "BranchColumns", "bistability_window", "solve_mean_field",
    "NumericalError", "characteristic_polynomial", "diffusion_matrix",
    "drift_matrix", "is_stable", "solve_lyapunov",
    "ATOM_FIELD", "MIRROR_ATOM", "MIRROR_FIELD", "bogoliubov_excitations",
    "log_negativity", "mirror_phonons", "reduce_bipartition",
    "SweepSpec", "SweepTable", "Variant", "emit", "evaluate_branches", "run_sweep",
    "FIGURE_IDS", "baseline_params", "figure_preset",
    "ConfigError", "load_config",
    "__version__",
]
