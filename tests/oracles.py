"""Independent routes the tests hold the package to.

- Scalar references for T, F, the prediction of T, the energy expansion
  and the Cesaro mean, each written directly in Python arithmetic on the
  exact int n.  The package evaluates one array body per function, for
  its scalar and its array forms alike; the tests compare both with these
  by IEEE bits.  The arithmetic forms are looked up as module globals, so
  a test can put the batch kernel in place of the exact evaluators.
- The block partition of a dyadic weight vector and the block-telescoped
  route to the energy form, checked against
  :func:`rieszgreedy.arith.energy_form`.
- The parent-child grid identities at one grid point, through the exact
  Fraction grid point, its reciprocal expansion and
  :func:`rieszgreedy.limits.energy_form_at`, the reference for the array
  form :func:`rieszgreedy.limits.child_identities`.

Nothing here checks its arguments; the package's functions do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from rieszgreedy.arith import energy_form, leja_offset, log_kernel_form
from rieszgreedy.asymptotics import TPrediction, _expansion_coefficients
from rieszgreedy.binary import (WeightVector, binary_weights, expand_reciprocal,
                                grid_point)
from rieszgreedy.energy import EnergyParams, extremal_potential, greedy_energy
from rieszgreedy.limits import energy_form_at
from rieszgreedy.special import EULER_GAMMA, arclength_energy, zeta


def t_sequence(n: int, s: float) -> float:
    e = greedy_energy(n, EnergyParams(s))
    if s == 0.0:
        return (e + n * math.log(n)) / n
    if s == 1.0:
        return (e - n * n * math.log(n) / math.pi) / (n * n)
    if s > 1.0:
        return e / float(n) ** (1.0 + s)
    cont = arclength_energy(s) * n * n
    if s == -1.0:
        return (e - cont) / math.log(n)
    if s < -1.0:
        return e - cont
    return (e - cont) / float(n) ** (1.0 + s)


def f_sequence(n: int, s: float) -> float:
    u = extremal_potential(n, EnergyParams(s))
    if s == 0.0:
        return -u / math.log(n + 1.0)
    if s == 1.0:
        return (u - n * math.log(n) / math.pi) / n
    if s > 1.0:
        return u / float(n) ** s
    cont = arclength_energy(s) * n
    if s < 0.0:
        return u - cont
    return (u - cont) / float(n) ** s


def predict_t(n: int, s: float) -> TPrediction:
    """The remainder scale n^2 is the exact n * n rounded once."""
    w = binary_weights(n)
    if s == 0.0:
        return TPrediction(leja_offset(w), 1.0)
    if s == -1.0:
        return TPrediction(-math.pi / 3.0 * energy_form(w, -1.0) / math.log(n),
                           math.log(n))
    if s == 1.0:
        value = (EULER_GAMMA + math.log(2.0 / math.pi) + log_kernel_form(w)) / math.pi
        return TPrediction(value, float(n * n))
    value = 2.0 * zeta(s) / (2.0 * math.pi) ** s * energy_form(w, s)
    if s < 1.0:
        scale = float(n) ** (1.0 + s)
    elif s == 3.0:
        scale = n * n / math.log(n)
    elif s < 3.0 and s != 2.0:
        scale = float(n) ** (s - 1.0)
    else:
        scale = float(n * n)
    return TPrediction(value, scale)


def expansion_energy(n: int, s: float) -> float:
    w = binary_weights(n)
    ex = _expansion_coefficients(s)
    if ex.log_factor:
        q = ex.log_factor
        terms = [q * n * n * math.log(n),
                 q * (ex.log_constant + log_kernel_form(w)) * n * n]
    else:
        terms = [ex.arclength * n * n]
    for j, c in enumerate(ex.coeffs):
        sj = s - 2.0 * j
        terms.append(c * energy_form(w, sj) * (float(n) ** sj * n))
    return math.fsum(terms)


def cesaro_mean(n: int, s: float) -> float:
    cont = arclength_energy(s)
    e_next = greedy_energy(n + 1, EnergyParams(s))
    return (0.5 * e_next - 0.5 * n * (n + 1) * cont) / n


class DyadicStructureError(ValueError):
    """Raised when consecutive components are not related by powers of two."""


@dataclass(frozen=True)
class BlockPartition:
    """The unique partition of a dyadic weight vector into maximal strings
    of consecutive binary places.

    ``spans`` lists the finite blocks as 1-based inclusive index pairs;
    ``endpoints`` aligns with them, carrying (theta_first, b_first,
    theta_last, b_last) for each.  ``infinite_start`` is the 1-based index
    opening the final all-unit-gap block, when the vector has one, and
    ``infinite_theta`` its first component.
    """

    spans: tuple[tuple[int, int], ...]
    endpoints: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]
    infinite_start: Optional[int] = None
    infinite_theta: Optional[Fraction] = None

    def blocks(self) -> list[tuple[int, ...]]:
        """Materialized 1-based index strings (finite blocks only)."""
        return [tuple(range(a, b + 1)) for a, b in self.spans]


def _exponent_gaps(w: WeightVector) -> list[int]:
    """Exponents k_j with theta_j = theta_1 2^{-k_j}, k_1 = 0."""
    lead = w.components[0]
    ks = [0]
    for j, t in enumerate(w.components[1:], start=2):
        ratio = lead / t
        num, den = ratio.numerator, ratio.denominator
        if den != 1 or num & (num - 1):
            raise DyadicStructureError(
                f"component {j} is not the leading one over a power of two")
        ks.append(num.bit_length() - 1)
    return ks


def dyadic_blocks(w: WeightVector) -> BlockPartition:
    """Partition the vector's binary places into maximal consecutive runs.

    Within a run, the components halve step by step; between runs the
    exponents jump by at least 2, which forces theta_end >= 2 b_end at
    every run end.  An exact unit tail extends (or constitutes) a final
    infinite run.  Truncated vectors are rejected: the partition is a
    statement about the exact vector.
    """
    if w.tail_bound != 0.0:
        raise ValueError("partition requires an exact weight vector")
    ks = _exponent_gaps(w)
    p = len(ks)
    runs: list[tuple[int, int]] = []
    start = 0
    for j in range(1, p):
        if ks[j] != ks[j - 1] + 1:
            runs.append((start, j - 1))
            start = j
    runs.append((start, p - 1))

    infinite_start = None
    infinite_theta = None
    if w.unit_tail is not None:
        lead = w.components[0]
        ratio = lead / w.unit_tail
        if ratio.denominator != 1 or ratio.numerator & (ratio.numerator - 1):
            raise DyadicStructureError("unit tail is not a power-of-two part")
        t_exp = ratio.numerator.bit_length() - 1
        if t_exp == ks[-1] + 1:
            # tail is contiguous with the last explicit run
            start, _ = runs.pop()
            infinite_start = start + 1
            infinite_theta = w.components[start]
        else:
            infinite_start = p + 1
            infinite_theta = w.unit_tail

    bs = w.suffix_masses()
    comps = w.components
    spans = []
    endpoints = []
    for a, b in runs:
        spans.append((a + 1, b + 1))
        theta_end, b_end = comps[b], bs[b]
        if w.unit_tail is None and b == p - 1:
            b_end = Fraction(0)
        if theta_end - 2 * b_end < 0:
            raise DyadicStructureError("run end violates theta >= 2b")
        endpoints.append((comps[a], bs[a], theta_end, b_end))
    return BlockPartition(tuple(spans), tuple(endpoints),
                          infinite_start, infinite_theta)


def energy_form_telescoped(w: WeightVector, s: float) -> float:
    """Evaluate the quadratic form block by block:
    each finite run contributes (2 theta_first)^s (2 b_first)
    + theta_last^s (theta_last - 2 b_last), and an infinite final run
    contributes (2 theta_first)^{s+1}.
    """
    part = dyadic_blocks(w)
    terms = []
    for tf, bf, tl, bl in part.endpoints:
        terms.append((2.0 * float(tf)) ** s * (2.0 * float(bf)))
        terms.append(float(tl) ** s * float(tl - 2 * bl))
    if part.infinite_theta is not None:
        terms.append((2.0 * float(part.infinite_theta)) ** (s + 1.0))
    return math.fsum(terms)


def child_identities(m: int, n: int, s: float):
    """Both sides of the two parent-child identities at the grid point
    x = 2^m/(2^m + 2n + 1), whose children are 2n + 1 and 2n at order
    m + 1: ((lhs_odd, rhs_odd), (lhs_even, rhs_even))."""
    x = grid_point(m, n)
    x_odd = grid_point(m + 1, 2 * n + 1)
    x_evn = grid_point(m + 1, 2 * n)
    ks = expand_reciprocal(x).exponents
    xf, xof, xef = float(x), float(x_odd), float(x_evn)

    h = energy_form_at(x, s)
    h_odd = energy_form_at(x_odd, s)
    h_evn = energy_form_at(x_evn, s)

    pow_full = math.fsum(2.0 ** (-k * s) for k in ks)
    pow_head = math.fsum(2.0 ** (-k * s) for k in ks[:-1])
    c = math.expm1(s * math.log(2.0))  # 2^s - 1

    lhs1 = h - h_odd
    rhs1 = ((1.0 - (xof / xf) ** (s + 1.0)) * h
            - xof ** (s + 1.0) * (2.0 ** (-(m + 1) * (s + 1.0))
                                  + c * 2.0 ** (-m) * pow_full))
    lhs2 = h - h_evn
    rhs2 = (((xf / xef) ** (s + 1.0) - 1.0) * h_evn
            + xf ** (s + 1.0) * ((2.0 ** (s + 1.0) - 1.0)
                                 * 2.0 ** (-(m + 1) * (s + 1.0))
                                 + c * 2.0 ** (-m) * pow_head))
    return (lhs1, rhs1), (lhs2, rhs2)
