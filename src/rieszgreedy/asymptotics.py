"""Scaled energy sequences, their leading-order predictions, full energy
expansions, remainder-boundedness scans, doubling-gap diagnostics, and the
Cesaro mean of the extremal potential deviations.

Branch points: the scaled sequences change definition at s = -1, 0, 1;
the prediction of T also at s = 2 and 3, where its remainder scale
switches, and the energy expansion also at every odd s >= 3, where a
zeta(s - 2j) coefficient has its pole.  Parameters within 1e-9 of a
branch (but not exactly on it) are rejected instead of silently switched,
since the scalings differ by log factors.

T, F, the prediction of T and the Cesaro mean are each written once, as a
body over an array of n.  The array forms (:func:`t_from_energies`,
:func:`f_from_potentials`, :func:`t_predictions`, :func:`cesaro_means`)
run it over float n in [1, 2^53), the scalar functions over any Python int
on a one-element object array, so n stays an exact int under Python's
float arithmetic.  Powers and logs of n are taken per n with the scalar
libm (numpy's vectorized pow and log differ in the last ulp), so both
forms agree bit for bit wherever their inputs do.  The prediction takes
its forms from two kernels, as they serve different n:
:func:`limits.batch_eta_values` (n < 2^53: a one-element call takes
140-200 us, :func:`t_predictions` over 2..16383 about 0.3 us per n) and
the exact :mod:`rieszgreedy.arith` (any n, 23-35 us; 2-core Xeon).  The
expansion is the greedy energy's walk over another table (:func:`expansion_energy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple, Optional

import numpy as np

from . import limits
from .arith import energy_form, leja_offset, log_kernel_form
from .binary import binary_weights
from .energy import (_greedy_s, _roots_expanded, bit_sum, bit_sums,
                     extremal_potential, greedy_energies, greedy_energy, int_array)
from .special import (BRANCH_GUARD, EULER_GAMMA, RootsExpansion, arclength_energy,
                      finite_s, roots_expansion, zeta)
# unused here, but perfbench/layertrace.py patches this name on this module
from .special import sinc_power_series  # noqa: F401

__all__ = [
    "t_sequence",
    "t_from_energies",
    "f_sequence",
    "f_from_potentials",
    "TPrediction",
    "predict_t",
    "t_predictions",
    "expansion_energy",
    "expansion_energies",
    "EnergyReport",
    "RemainderScan",
    "remainder_scan",
    "doubling_gap",
    "cesaro_mean",
    "cesaro_means",
    "cesaro_scales",
]

_MAX_SCAN_N = 1 << 14


def _check_branches(s: float, branches=(-1.0, 0.0, 1.0)) -> None:
    finite_s(s)
    for b in branches:
        if s != b and abs(s - b) < BRANCH_GUARD:
            raise ValueError(
                f"s = {s} is within {BRANCH_GUARD} of the branch point {b}; "
                "pass the branch value exactly or move away from it")


def _per_n(func, n: np.ndarray) -> np.ndarray:
    """func applied to each entry of n as a Python number."""
    return np.fromiter(map(func, n.tolist()), n.dtype, n.size)


def _powers(n: np.ndarray, p: float, s: float) -> np.ndarray:
    """n^p by the scalar pow, per n; a value beyond the float range raises
    OverflowError naming the first such n, the power and s."""
    def power(x):
        try:
            return x ** p
        except OverflowError:
            raise OverflowError(f"n^{p} overflows at n = {int(x)}, s = {s}") from None
    return _per_n(power, n)


def _one(x) -> np.ndarray:
    """x as a one-element array that keeps it a Python number."""
    return np.array([x], dtype=object)


def _at_one(what: str, n: int, s: float, body) -> list[float]:
    """The arrays ``body(_one(n))`` returns, as floats; where n, a power of
    it or a result leaves the float range, OverflowError names n and s."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            values = [float(v[0]) for v in body(_one(n))]
        except OverflowError:  # an int, or a weight, beyond the float range
            values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"{what}(n = {n}, s = {s}) is beyond the float range")
    return values


def _check_sequence_s(s: float) -> None:
    _check_branches(s)
    _greedy_s(s)


def _t(n: np.ndarray, e: np.ndarray, s: float) -> np.ndarray:
    """T from the energies E(n)."""
    if s == 0.0:
        return (e + n * _per_n(math.log, n)) / n
    if s == 1.0:
        return (e - n * n * _per_n(math.log, n) / math.pi) / (n * n)
    if s > 1.0:
        return e / _powers(n, 1.0 + s, s)
    cont = arclength_energy(s) * n * n
    if s == -1.0:
        return (e - cont) / _per_n(math.log, n)
    if s < -1.0:
        return e - cont
    return (e - cont) / _powers(n, 1.0 + s, s)


def t_sequence(n: int, s: float) -> float:
    """The translated and scaled greedy energy T at index n.

    Six branches: plain translation for -2 < s < -1, log-normalized at
    s = -1, (E + n log n)/n at s = 0, power-normalized translation for
    |s| < 1, the log-subtracted form at s = 1, and E / n^{1+s} beyond.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_sequence_s(s)
    e = greedy_energy(n, s)
    return _at_one("t_sequence", n, s, lambda n: [_t(n, _one(e), s)])[0]


def t_from_energies(ns, energies: np.ndarray, s: float) -> np.ndarray:
    """:func:`t_sequence` over n in ns (2 <= n < 2^53), given the greedy
    energies E(n) (from :func:`~rieszgreedy.energy.greedy_energies`)."""
    ns = int_array(ns, 2)
    _check_sequence_s(s)
    return _t(ns.astype(float), energies, s)


def _f(n: np.ndarray, u: np.ndarray, s: float) -> np.ndarray:
    """F from the extremal potentials U_n(a_n)."""
    if s == 0.0:
        return -u / _per_n(math.log, n + 1.0)
    if s == 1.0:
        return (u - n * _per_n(math.log, n) / math.pi) / n
    if s > 1.0:
        return u / _powers(n, s, s)
    cont = arclength_energy(s) * n
    if s < 0.0:
        return u - cont
    return (u - cont) / _powers(n, s, s)


def f_sequence(n: int, s: float) -> float:
    """The translated and scaled extremal potential F at index n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_sequence_s(s)
    u = extremal_potential(n, s)
    return _at_one("f_sequence", n, s, lambda n: [_f(n, _one(u), s)])[0]


def f_from_potentials(ns, potentials: np.ndarray, s: float) -> np.ndarray:
    """:func:`f_sequence` over n in ns (1 <= n < 2^53), given the extremal
    potentials U_n(a_n) (from
    :func:`~rieszgreedy.energy.extremal_potentials`)."""
    ns = int_array(ns, 1)
    _check_sequence_s(s)
    return _f(ns.astype(float), potentials, s)


class TPrediction(NamedTuple):
    value: float
    remainder_scale: float


def _check_prediction_s(s: float) -> None:
    _check_branches(s, (-1.0, 0.0, 1.0, 2.0, 3.0))
    if s < -1.0:
        raise ValueError("prediction requires s >= -1")


def _prediction(n: np.ndarray, form, s: float) -> tuple[np.ndarray, np.ndarray]:
    """The predictions of T and their remainder scales, given the
    arithmetic forms ``form(target, s)`` of each n."""
    if s == 0.0:
        return form("leja_offset", None), np.ones(n.size)
    if s == -1.0:
        log_n = _per_n(math.log, n)
        return -math.pi / 3.0 * form("energy_form", -1.0) / log_n, log_n
    if s == 1.0:
        value = (EULER_GAMMA + math.log(2.0 / math.pi)
                 + form("log_kernel_form", None)) / math.pi
        return value, n * n
    value = 2.0 * zeta(s) / (2.0 * math.pi) ** s * form("energy_form", s)
    if s < 1.0:
        scale = _powers(n, 1.0 + s, s)
    elif s == 3.0:
        scale = n * n / _per_n(math.log, n)
    elif s < 3.0 and s != 2.0:
        scale = _powers(n, s - 1.0, s)
    else:
        scale = n * n
    return value, scale


def predict_t(n: int, s: float) -> TPrediction:
    """Leading-order prediction for T at index n, with the factor the
    remainder must be multiplied by for a boundedness check.

    The prediction is exact at s = 0.  For s >= -1 the remainder scales
    are n^{1+s} (|s| < 1), n^2 (s = 1, s = 2, s > 3), n^{s-1} (1 < s < 3),
    n^2 / log n (s = 3), and log n (s = -1).  Below s = -1 no leading form
    is available here.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_prediction_s(s)
    w = binary_weights(n)

    def form(target: str, s: Optional[float]) -> np.ndarray:  # the exact evaluators
        if target == "energy_form":
            return _one(energy_form(w, s))
        return _one(leja_offset(w) if target == "leja_offset" else log_kernel_form(w))
    return TPrediction(*_at_one("predict_t", n, s, lambda n: _prediction(n, form, s)))


def t_predictions(ns, s: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`predict_t` over n in ns (2 <= n < 2^53): the arrays of
    predictions and of remainder scales."""
    ns = int_array(ns, 2)
    _check_prediction_s(s)
    forms = partial(limits.batch_eta_values, ns)
    return _prediction(ns.astype(float), forms, s)


def _check_expansion_s(s: float) -> None:
    odd = 2.0 * round((finite_s(s) - 1.0) / 2.0) + 1.0  # the odd integer nearest s
    if s < -1.0 or s == 0.0:
        raise ValueError("expansion requires s >= -1 and s != 0")
    _check_branches(s, (-1.0, 0.0, 1.0, odd))


def _expansion_coefficients(s: float) -> RootsExpansion:
    """The :func:`~rieszgreedy.special.roots_expansion` terms the greedy
    expansion keeps: j <= floor((s+1)/2), or j < m at an odd s = 2m + 1."""
    odd = s == round(s) and int(round(s)) % 2 == 1 and s > 0
    top = (int(round(s)) - 1) // 2 - 1 if odd else math.floor((s + 1.0) / 2.0)
    return roots_expansion(s, top)


@lru_cache(maxsize=4096)
def _expansion_table(m: int, s: float) -> float:
    """L_x(M): L(M) expanded with the terms kept, inf beyond the float range."""
    try:
        return _roots_expanded(m, s, _expansion_coefficients(s))
    except OverflowError:
        return math.inf


def expansion_energy(n: int, s: float) -> float:
    """Multi-term energy expansion at index n, valid for s >= -1, s != 0.

    Generic s sums v(s) n^2 plus floor((s+1)/2) + 1 zeta-weighted terms
    c_j n^{1+s-2j} energy_form(s - 2j), the c_j of
    :func:`~rieszgreedy.special.roots_expansion`; positive even integers
    make this exact.  Odd integers s = 2m + 1 get q n^2 (log n +
    log_constant + log_kernel_form) instead of v(s) n^2 and the divergent
    j = m term.

    This is :func:`~rieszgreedy.energy.greedy_energy` with these
    roots-of-unity terms at 2^e as its table, exactly: the bit sum of
    M^{1+t} is n^{1+t} energy_form(t), of M^2 log M it is
    n^2 (log n + log_kernel_form).  No power of n takes a rounded exponent.
    Where the expansion, or a table entry it takes, is beyond the float
    range, OverflowError names n and s.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    _check_expansion_s(s)
    value = bit_sum(n, s, _expansion_table, False)
    if math.isinf(value):
        raise OverflowError(f"the energy expansion at n = {n}, s = {s} "
                            f"is beyond the float range")
    return value


def expansion_energies(ns, s: float) -> np.ndarray:
    """:func:`expansion_energy` over n in ns (2 <= n < 2^53), bit-identical
    to it, with the same OverflowError."""
    ns = int_array(ns, 2)
    _check_expansion_s(s)
    values = bit_sums(ns, s, _expansion_table, False)
    beyond = np.isinf(values)
    if beyond.any():  # the scalar raises, naming the first such n
        expansion_energy(int(ns[beyond.argmax()]), s)
    return values


@dataclass(frozen=True)
class EnergyReport:
    """One scan row: exact energy, scaled value, prediction, and the
    remainder (scaled_value - prediction) with its boundedness factor."""

    n: int
    s: float
    exact_energy: float
    scaled_value: float
    prediction: float
    remainder: float
    remainder_scale: float

    @property
    def scaled_remainder(self) -> float:
        return self.remainder * self.remainder_scale


@dataclass(frozen=True)
class RemainderScan:
    """Scaled-remainder sweep over a range of indices.

    ``octave_sups`` lists sup |scaled remainder| per dyadic octave of n;
    ``diverging`` flags a top octave exceeding its predecessor by more
    than 20 percent.
    """

    s: float
    n_lo: int
    n_hi: int
    level: str
    rows: tuple[EnergyReport, ...]
    max_scaled: float
    arg_max: int
    octave_sups: tuple[float, ...]
    diverging: bool


def remainder_scan(s: float, n_lo: int, n_hi: int,
                   level: str = "expansion") -> RemainderScan:
    """Sweep |remainder| * scale over n in [n_lo, n_hi].

    level = "expansion" measures the full-expansion remainder
    E - expansion_energy (scale 1; at s = 0 this degenerates to the exact
    identity T = leja offset).  level = "leading" measures the
    leading-order remainder (T - predict_t) * remainder_scale.
    """
    if not 2 <= n_lo <= n_hi <= _MAX_SCAN_N:
        raise ValueError(f"range must sit inside [2, {_MAX_SCAN_N}]")
    if level not in ("expansion", "leading"):
        raise ValueError(f"unknown level {level!r}")
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    energies = greedy_energies(ns, s)
    if level == "leading" or s == 0.0:
        scaled = t_from_energies(ns, energies, s)
        pred, scale = t_predictions(ns, s)
    else:
        scaled = energies
        pred, scale = expansion_energies(ns, s), np.ones(ns.size)
    rows = [EnergyReport(*row) for row in zip(
        ns.tolist(), [s] * ns.size, energies.tolist(), scaled.tolist(),
        pred.tolist(), (scaled - pred).tolist(), scale.tolist())]

    octaves: list[float] = []
    k_lo = n_lo.bit_length() - 1
    for row in rows:
        k = row.n.bit_length() - 1 - k_lo
        while len(octaves) <= k:
            octaves.append(0.0)
        octaves[k] = max(octaves[k], abs(row.scaled_remainder))
    if len(octaves) >= 2 and n_hi & (n_hi - 1) == 0:
        # a range ending exactly on a power of two leaves that single
        # point as a degenerate top bin; fold it into the last full octave
        top = octaves.pop()
        octaves[-1] = max(octaves[-1], top)
    max_row = max(rows, key=lambda r: abs(r.scaled_remainder))
    diverging = (len(octaves) >= 2
                 and octaves[-1] > 1.2 * max(octaves[:-1]))
    return RemainderScan(s, n_lo, n_hi, level, tuple(rows),
                         abs(max_row.scaled_remainder), max_row.n,
                         tuple(octaves), diverging)


def doubling_gap(n: int, s: float) -> float:
    """T at 2n minus T at n; tends to 0 for every s >= -1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    t_n = t_sequence(n, s)  # beyond the float range, names n
    return t_sequence(2 * n, s) - t_n


def _check_cesaro_s(s: float) -> None:
    if not -2.0 < finite_s(s) < 0.0:
        raise ValueError("Cesaro mean requires -2 < s < 0")


def _cesaro(n: np.ndarray, e_next: np.ndarray, s: float) -> np.ndarray:
    """The Cesaro mean from the energies E(n+1)."""
    return (0.5 * e_next - 0.5 * n * (n + 1) * arclength_energy(s)) / n


def cesaro_mean(n: int, s: float) -> float:
    """Average of the first n extremal-potential deviations,
    (1/n) sum_{k<=n} (U_k(a_k) - k I_s), for -2 < s < 0.

    Uses the telescoping identity sum_k U_k(a_k) = E(n+1)/2, so the whole
    mean costs one closed-form energy evaluation rather than n of them.
    Converges to I_s / 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cesaro_s(s)
    e_next = greedy_energy(n + 1, s)
    return _at_one("cesaro_mean", n, s, lambda n: [_cesaro(n, _one(e_next), s)])[0]


def cesaro_means(ns, s: float) -> np.ndarray:
    """:func:`cesaro_mean` over n in ns (1 <= n < 2^53 - 1)."""
    ns = int_array(ns, 1, successor=True)  # E(n + 1) from the array form
    _check_cesaro_s(s)
    return _cesaro(ns.astype(float), greedy_energies(ns + 1, s), s)


def cesaro_scales(ns, s: float) -> np.ndarray:
    """The factor the Cesaro-mean deviation from I_s / 2 is multiplied by
    to stay bounded: n / log n at s = -1 (1 at n = 1), n for s < -1 and
    n^{-s} for -1 < s < 0."""
    ns = int_array(ns, 1)
    _check_cesaro_s(s)
    n = ns.astype(float)
    if s == -1.0:
        return _per_n(lambda x: x / math.log(x) if x > 1.0 else 1.0, n)
    if s < -1.0:
        return n
    return _powers(n, -s, s)
