"""Each scalar entry point rejects an argument outside its domain with a
ValueError that says which rule it broke."""

import importlib
import inspect
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rieszgreedy.arith import (energy_form, leja_offset, log_kernel_form, log_moment,
                              power_sum)
from rieszgreedy.asymptotics import (cesaro_mean, doubling_gap, f_sequence,
                                     predict_t, t_sequence)
from rieszgreedy.binary import (WeightVector, binary_weights, bit_count,
                               expand_reciprocal)
from rieszgreedy.energy import extremal_potential
from rieszgreedy.special import log_term_constant, sinc_coeff_derivative


@pytest.mark.parametrize("call,message", [
    (lambda: f_sequence(0, 0.5), "n must be >= 1"),
    (lambda: predict_t(1, 0.5), "n must be >= 2"),
    (lambda: doubling_gap(1, 0.5), "n must be >= 2"),
    (lambda: cesaro_mean(0, -0.5), "n must be >= 1"),
    (lambda: extremal_potential(0, 0.5), "n must be >= 1"),
    (lambda: bit_count(0), "need a positive integer, got 0"),
    (lambda: sinc_coeff_derivative(-1), "m must be non-negative"),
    (lambda: log_term_constant(-1), "m must be non-negative"),
    (lambda: log_moment(expand_reciprocal(0.7, max_terms=8).weights()),
     "log_moment: truncated tail may contribute"),
], ids=["f_sequence", "predict_t", "doubling_gap", "cesaro_mean",
        "extremal_potential", "bit_count", "sinc_coeff_derivative",
        "log_term_constant", "log_moment"])
def test_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


BIG, HUGE = (1 << 600) + 1, (1 << 1100) + 1


@pytest.mark.parametrize("call, n, s", [
    (t_sequence, BIG, 0.5), (t_sequence, BIG, -0.5), (cesaro_mean, BIG, -0.5),
    (t_sequence, BIG, 1.0), (t_sequence, HUGE, 0.5), (doubling_gap, 1 << 1100, 0.5),
    (cesaro_mean, HUGE, -0.5), (predict_t, HUGE, -1.0), (predict_t, HUGE, 0.0),
    (predict_t, HUGE, 1.0)], ids=lambda v: f"2^{v.bit_length() - 1}" if
    isinstance(v, int) else getattr(v, "__name__", str(v)))
def test_scalar_beyond_the_float_range(call, n, s):
    # n^2, or n itself, is beyond the float range (at HUGE also the weight
    # 1/n): an OverflowError that names the call, n and s, never a nan, a
    # ZeroDivisionError or a bare "int too large to convert to float";
    # doubling_gap names the T at n that it takes first
    name = "t_sequence" if call is doubling_gap else call.__name__
    message = f"{name}(n = {n}, s = {s}) is beyond the float range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=re.escape(message)):
            call(n, s)


@pytest.mark.parametrize("form", [lambda w: energy_form(w, -1.0), leja_offset,
                                  log_kernel_form, lambda w: power_sum(w, -0.5),
                                  lambda w: power_sum(w, 0.5), log_moment],
                         ids=["energy_form", "leja_offset", "log_kernel_form",
                              "power_sum_negative_s", "power_sum", "log_moment"])
def test_weight_underflow(form):
    # the weight 2^-1100 of the smallest bit is 0.0 as a float; the sums
    # would give a log of 0.0, a ZeroDivisionError, or (s > 0) drop it
    with pytest.raises(OverflowError, match="weight underflows to 0.0"):
        form(binary_weights(HUGE))


@pytest.mark.parametrize("call", [lambda w: power_sum(w, 0.5), log_moment],
                         ids=["power_sum", "log_moment"])
def test_unit_tail_underflow(call):
    # the unit tail's first element c = 2^-1100 is 0.0 as a float
    c = Fraction(1, 1 << 1100)
    with pytest.raises(OverflowError, match="weight underflows to 0.0"):
        call(WeightVector((1 - 2 * c,), unit_tail=c))


#: Valid arguments besides s for every public function that takes s.
OTHER_ARGS = {
    "zeta": {}, "regularized_zeta": {}, "arclength_energy": {},
    "sinc_power_series": {"terms": 3}, "roots_expansion": {"top": 2},
    "energy_form": {"w": binary_weights(5)}, "power_sum": {"w": binary_weights(5)},
    "energy_form_at": {"x": 0.75}, "power_sum_at": {"x": 0.75},
    "batch_eta_values": {"ns": [5], "target": "energy_form"},
    "scan_extremum": {"m": 4, "target": "energy_form"},
    "interval_estimate": {"m": 4}, "stationarity_residual": {"x": 0.75},
    "child_identities": {"m": 3},
    "t_sequence": {"n": 5}, "f_sequence": {"n": 5}, "predict_t": {"n": 5},
    "expansion_energy": {"n": 5}, "doubling_gap": {"n": 5},
    "cesaro_mean": {"n": 5},
    "t_from_energies": {"ns": [5], "energies": np.ones(1)},
    "f_from_potentials": {"ns": [5], "potentials": np.ones(1)},
    "t_predictions": {"ns": [5]}, "expansion_energies": {"ns": [5]},
    "cesaro_means": {"ns": [5]}, "cesaro_scales": {"ns": [5]},
    "remainder_scan": {"n_lo": 2, "n_hi": 8},
}


def functions_of_s():
    """Every function (not class) in the public API of these modules with
    a parameter named s."""
    for module in ("special", "arith", "limits", "asymptotics"):
        mod = importlib.import_module(f"rieszgreedy.{module}")
        for name in mod.__all__:
            func = getattr(mod, name)
            if (callable(func) and not inspect.isclass(func)
                    and "s" in inspect.signature(func).parameters):
                yield func


@pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("func", list(functions_of_s()), ids=lambda f: f.__name__)
def test_non_finite_s(func, s):
    name = func.__name__
    assert name in OTHER_ARGS, f"add the valid arguments of {name} to OTHER_ARGS"
    with pytest.raises(ValueError, match=re.escape(f"s = {s} is not finite")):
        func(**OTHER_ARGS[name], s=s)
