"""Independent routes the tests hold the package to.

- Scalar references for T, F, the prediction of T and the Cesaro mean,
  each written directly in Python arithmetic on the exact int n.  The
  package evaluates one array body per function, for its scalar and its
  array forms alike; the tests compare both with these by IEEE bits.  The
  arithmetic forms are looked up as module globals, so a test can put the
  batch kernel in place of the exact evaluators.
- The energy expansion term by term at n, each coefficient weighted by an
  exact arithmetic form of the binary weights of n.  The package sums the
  same expansion bit by bit over the roots-of-unity terms at 2^e; the
  tests hold it within a few eps times the sum of the terms' absolute
  values.
- The block partition of a dyadic weight vector and the block-telescoped
  route to the energy form, checked against
  :func:`rieszgreedy.arith.energy_form`.
- The parent-child grid identities at one grid point, through the exact
  Fraction grid point, its reciprocal expansion and
  :func:`rieszgreedy.limits.energy_form_at`, the reference for the array
  form :func:`rieszgreedy.limits.child_identities`.
- The greedy expansion of 1/x by exact Fraction steps, the reference for
  the integer long division of :func:`rieszgreedy.binary.expand_reciprocal`.
- The greedy energy by the two-column formula over the roots-of-unity
  energies, which :func:`rieszgreedy.energy.greedy_energy` regroups.
- F, the translated and scaled extremal potential, for s < 1, summed bit
  by bit in mpmath from the potentials of the 2^e-th roots of unity at a
  midpoint, without any float energy.
- The grid block kernel written one array expression per term, a fresh
  array for every temporary: the reference, bit for bit, for the
  work-buffer kernel :func:`rieszgreedy.limits._chunk_values`.
- CSV rows by one ``%`` template per chunk, floats through Python's
  ``%.17g``: the reference for the byte-matrix row writer of
  :mod:`rieszgreedy.cli`.

Nothing here checks its arguments; the package's functions do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Optional

import mpmath
import numpy as np

from rieszgreedy.arith import energy_form, leja_offset, log_kernel_form
from rieszgreedy.asymptotics import TPrediction, _expansion_coefficients
from rieszgreedy.binary import (ReciprocalExpansion, WeightVector,
                                binary_weights, expand_reciprocal, grid_point)
from rieszgreedy.energy import extremal_potential, greedy_energy, roots_energy
from rieszgreedy.limits import energy_form_at
from rieszgreedy.special import EULER_GAMMA, arclength_energy, zeta


def t_sequence(n: int, s: float) -> float:
    e = greedy_energy(n, s)
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
    u = extremal_potential(n, s)
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


def expansion_terms(n: int, s: float) -> list[float]:
    """The terms of the energy expansion at n, one per coefficient, each
    weighted by an exact arithmetic form of binary_weights(n)."""
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
    return terms


def expansion_energy(n: int, s: float) -> float:
    return math.fsum(expansion_terms(n, s))


def cesaro_mean(n: int, s: float) -> float:
    cont = arclength_energy(s)
    e_next = greedy_energy(n + 1, s)
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


def expand_reciprocal_fractions(x, prefer_finite: bool,
                                max_terms: int) -> ReciprocalExpansion:
    """The greedy expansion of 1/x, each term the largest 2^-k past the
    last one that is not above the remainder, subtracted as a Fraction."""
    xq = Fraction(x)
    r = 1 / xq
    exps: list[int] = []
    last = -1
    while r > 0 and len(exps) < max_terms:
        # smallest t >= 0 with r 2^t >= 1
        t = max(0, r.denominator.bit_length() - r.numerator.bit_length())
        if (r.numerator << t) < r.denominator:
            t += 1
        k = max(last + 1, t)
        exps.append(k)
        r -= Fraction(1, 1 << k)
        last = k
        if r == Fraction(1, 1 << k):
            return ReciprocalExpansion(xq, tuple(exps), unit_tail_start=k + 1)
    if r == 0:
        if prefer_finite:
            return ReciprocalExpansion(xq, tuple(exps))
        return ReciprocalExpansion(xq, tuple(exps[:-1]),
                                   unit_tail_start=exps[-1] + 1)
    bound = math.nextafter(float(xq) * 2.0 ** (-last), math.inf)
    return ReciprocalExpansion(xq, tuple(exps), tail_bound=bound)


def greedy_energy_columns(n: int, s: float) -> float:
    """sum_e (S_e / 2^e) L(2^{e+1}) + (1 - 2 S_e / 2^e) L(2^e) over the set
    bits e of n, S_e = n mod 2^e, L the roots-of-unity energy; a zero
    weight takes no L.  Terms holding +inf and -inf give inf: a -inf term
    has bit e of n set, so E(n) >= L(2^e) is beyond the float range too."""
    params = s
    terms = []
    for e in range(n.bit_length()):
        if n >> e & 1:
            ratio = (n & ((1 << e) - 1)) / (1 << e)
            if ratio != 0.0:
                terms.append(ratio * roots_energy(2 << e, params))
            if ratio != 0.5:
                terms.append((1.0 - 2.0 * ratio) * roots_energy(1 << e, params))
    try:
        return math.fsum(terms)
    except ValueError:  # -inf + inf
        return math.inf


#: Largest M = 2^e whose midpoint potential is summed term by term.
_DIRECT_E = 12


@lru_cache(maxsize=None)
def _midpoint_deviation(e: int, s: float):
    """V(M) - I_s M at M = 2^e in mpmath (30 digits), V(M) the sum of
    (2 sin(pi (2j + 1) / (2M)))^-s over j < M.  Up to 2^12 this is the sum
    itself.  Above, it is the two leading terms of the roots-of-unity
    expansion, c_j (2^{s-2j} - 1) M^{s-2j} for j = 0, 1, with
    c_j = 2 b_j zeta(s - 2j) / (2 pi)^s, b_0 = 1, b_1 = s pi^2 / 6; the
    terms left out are O(M^{s-4}), below 1e-13 from 2^13 on for s < 1."""
    with mpmath.workdps(30):
        s_mp, m = mpmath.mpf(s), 1 << e
        arclength = (mpmath.power(2, -s_mp) * mpmath.gamma((1 - s_mp) / 2)
                     / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - s_mp / 2)))
        if e <= _DIRECT_E:
            return mpmath.fsum(
                (2 * mpmath.sin(mpmath.pi * (2 * j + 1) / (2 * m))) ** -s_mp
                for j in range(m)) - arclength * m
        front = 2 / (2 * mpmath.pi) ** s_mp
        b = (1, s_mp * mpmath.pi ** 2 / 6)
        return mpmath.fsum(front * b[j] * mpmath.zeta(s_mp - 2 * j)
                           * (mpmath.power(2, s_mp - 2 * j) - 1)
                           * mpmath.power(m, s_mp - 2 * j) for j in range(2))


def f_reference(n: int, s: float) -> float:
    """F(n) = U_n - I_s n for s < 0, (U_n - I_s n) / n^s for 0 < s < 1,
    from U_n - I_s n = sum over the set bits e of n of V(2^e) - I_s 2^e."""
    with mpmath.workdps(30):
        total = mpmath.fsum(_midpoint_deviation(e, s)
                            for e in range(n.bit_length()) if n >> e & 1)
        return float(total if s < 0 else total / mpmath.power(n, s))


def chunk_values(ns: np.ndarray, panels) -> list:
    """One block's values for each checked (target, s) panel, as the block
    kernel defines them: per bit depth d of n = 2^t y, the weight hw of a
    set bit and the remainder hq below it, each panel's term added to its
    own accumulator, every temporary a new array."""
    log2 = math.log(2.0)
    mant, top = np.frexp(ns.astype(float))
    q = 2.0 * mant  # y, then q_k once bit k is removed
    x, logy = 1.0 / q, np.log(q)
    cs = [2.0 * math.expm1(s * log2) if t == "energy_form" else 0.0 for t, s in panels]
    accs = [np.zeros_like(q) for _ in panels]
    for d in range(int(top.max())):
        w = 2.0 ** -d
        hit = q >= w
        hw = hit * w
        q -= hw
        hq = hit * q
        for (target, s), c, acc in zip(panels, cs, accs):
            if target == "energy_form":
                acc += 2.0 ** (-d * s) * (hw + c * hq)
            elif target == "leja_offset":
                acc += d * hw - 2.0 * hq
            else:
                acc += w * ((d + 2) * hw + 2 * d * hq)
    values = []
    for (target, s), acc in zip(panels, accs):
        if target == "energy_form":
            values.append(x ** (s + 1.0) * acc)
        elif target == "leja_offset":
            values.append(logy + log2 * x * acc)
        else:
            values.append(2.0 * log2 - logy - log2 * x * x * acc)
    return values


def _template_cells(part) -> tuple[str, object]:
    """One column's chunk as a conversion of the row template and its
    arguments: a float array keeps its values for ``%.17g``, other columns
    are formatted cell by cell (floats with 17 significant digits, every
    other value through ``str``), and a single int or float is a constant
    column, whose one cell is the conversion itself (arguments None)."""
    def cell(value) -> str:
        return f"{value:.17g}" if isinstance(value, float) else str(value)

    if isinstance(part, (int, float)):
        return cell(part).replace("%", "%%"), None
    if isinstance(part, np.ndarray):
        if part.dtype.kind == "f":
            return "%.17g", part.tolist()
        part = part.tolist()  # numpy scalars become Python's
    return "%s", list(map(cell, part))


def csv_rows(columns, rows: int) -> str:
    """``rows`` CSV rows of the columns (equal-length sequences or arrays,
    or a single int or float for a constant column), with one % template."""
    cells = [_template_cells(c) for c in columns]
    args = [a for _, a in cells if a is not None]
    template = ",".join(conv for conv, _ in cells) + "\n"
    return (template * rows) % tuple(chain.from_iterable(zip(*args, strict=True)))
