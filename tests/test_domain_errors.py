"""Each scalar entry point rejects an argument outside its domain with a
ValueError that says which rule it broke."""

import pytest

from rieszgreedy.arith import log_moment
from rieszgreedy.asymptotics import (cesaro_mean, doubling_gap, f_sequence,
                                     predict_t)
from rieszgreedy.binary import bit_count, expand_reciprocal
from rieszgreedy.energy import EnergyParams, extremal_potential
from rieszgreedy.special import log_term_constant, sinc_coeff_derivative


@pytest.mark.parametrize("call,message", [
    (lambda: f_sequence(0, 0.5), "n must be >= 1"),
    (lambda: predict_t(1, 0.5), "n must be >= 2"),
    (lambda: doubling_gap(1, 0.5), "n must be >= 2"),
    (lambda: cesaro_mean(0, -0.5), "n must be >= 1"),
    (lambda: extremal_potential(0, EnergyParams(0.5)), "n must be >= 1"),
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
