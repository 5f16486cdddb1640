"""Greedy (Leja-type) Riesz energies on the unit circle.

Exact energies of greedy configurations via binary decomposition, the
arithmetic functions of normalized binary weights that drive their
asymptotics, multi-term energy expansions, limit-point functions on
[1/2, 1], and certified dyadic-grid scans for the extremal constants.
"""

__version__ = "0.1.0"

from .arith import (energy_form, leja_offset, log_kernel_form, log_moment,
                    power_sum)
from .asymptotics import (EnergyReport, RemainderScan, TPrediction,
                          cesaro_mean, doubling_gap, expansion_energy,
                          f_sequence, predict_t, remainder_scan, t_sequence)
from .binary import (BinaryDecomposition, ReciprocalExpansion, WeightVector,
                     binary_weights, bit_count, decompose, expand_reciprocal,
                     grid_point, grid_points)
from .energy import (CircleConfig, EnergyParams, extremal_potential,
                     greedy_energy, greedy_oracle, prefix_energies,
                     roots_energy)
from .limits import (ScanResult, batch_eta_values, child_identities,
                     energy_form_at, interval_estimate, leja_offset_at,
                     log_kernel_form_at, log_moment_at, power_sum_at,
                     scan_extremum, stationarity_residual)
from .special import (EULER_GAMMA, SincPowerSeries, arclength_energy,
                      digamma, log_term_constant, sinc_coeff_derivative,
                      sinc_power_series, zeta)

__all__ = [
    "__version__",
    "BinaryDecomposition", "WeightVector", "ReciprocalExpansion",
    "decompose", "bit_count", "binary_weights", "expand_reciprocal",
    "grid_point", "grid_points",
    "zeta", "digamma", "arclength_energy", "SincPowerSeries",
    "sinc_power_series", "sinc_coeff_derivative", "log_term_constant",
    "EULER_GAMMA",
    "energy_form", "log_kernel_form", "leja_offset", "power_sum",
    "log_moment",
    "EnergyParams", "CircleConfig", "roots_energy", "greedy_energy",
    "greedy_oracle", "extremal_potential", "prefix_energies",
    "t_sequence", "f_sequence", "TPrediction", "predict_t",
    "expansion_energy", "EnergyReport", "RemainderScan", "remainder_scan",
    "doubling_gap", "cesaro_mean",
    "energy_form_at", "log_kernel_form_at", "leja_offset_at",
    "power_sum_at", "log_moment_at", "batch_eta_values", "ScanResult",
    "scan_extremum", "interval_estimate", "stationarity_residual",
    "child_identities",
]
