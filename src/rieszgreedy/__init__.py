"""Greedy (Leja-type) Riesz energies on the unit circle.

Exact energies of greedy configurations via binary decomposition, the
arithmetic functions of normalized binary weights that drive their
asymptotics, multi-term energy expansions, limit-point functions on
[1/2, 1], and certified dyadic-grid scans for the extremal constants.

Importing the package loads none of its modules.  Each public name in
:data:`__all__` is imported from its defining module the first time it
is read (PEP 562 module ``__getattr__``): ``rieszgreedy.zeta`` loads
``special`` alone, ``from rieszgreedy import *`` every module, and each
name is the very object its module holds.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the module that defines it, in ``__all__`` order.
_HOMES = {name: module for module, names in (
    ("binary", "WeightVector ReciprocalExpansion decompose bit_count "
               "binary_weights expand_reciprocal grid_point grid_points"),
    ("special", "zeta digamma arclength_energy SincPowerSeries sinc_power_series "
                "sinc_coeff_derivative log_term_constant EULER_GAMMA"),
    ("arith", "energy_form log_kernel_form leja_offset power_sum log_moment"),
    ("energy", "CircleConfig roots_energy greedy_energy greedy_oracle "
               "extremal_potential prefix_energies"),
    ("asymptotics", "t_sequence f_sequence TPrediction predict_t expansion_energy "
                    "EnergyReport RemainderScan remainder_scan doubling_gap "
                    "cesaro_mean"),
    ("limits", "energy_form_at log_kernel_form_at leja_offset_at power_sum_at "
               "log_moment_at batch_eta_values ScanResult scan_extremum "
               "interval_estimate stationarity_residual child_identities"),
) for name in names.split()}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
