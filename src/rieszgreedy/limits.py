"""Limit-point functions on [1/2, 1] and exhaustive dyadic-grid scans for
the extremal constants, with certified convergence bounds.

Every grid point x = 2^m / (2^m + 2n + 1) corresponds to the odd integer
N = 2^m + 2n + 1 via the weight identity theta(x) = binary_weights(N), so
a grid scan is a vectorized sweep of the arithmetic functions over the odd
integers in (2^m, 2^{m+1}), evaluated in chunks.  The ``jobs`` arguments
are accepted for compatibility and have no effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import arith
from .binary import expand_reciprocal, grid_point

__all__ = [
    "energy_form_at",
    "log_kernel_form_at",
    "leja_offset_at",
    "power_sum_at",
    "log_moment_at",
    "batch_eta_values",
    "ScanResult",
    "scan_extremum",
    "interval_estimate",
    "stationarity_residual",
    "child_identities",
    "SCAN_TARGETS",
]

_LOG2 = math.log(2.0)

SCAN_TARGETS = ("energy_form", "log_kernel_form", "leja_offset")

_CHUNK = 1 << 15


def _weights_at(x, prefer_finite: bool = True):
    exp = expand_reciprocal(x, prefer_finite=prefer_finite)
    if exp.tail_bound != 0.0:
        # no terminating or unit-gap form: buy accuracy with a deeper
        # expansion (evaluation error scales like 2^{-terms (s+1)})
        exp = expand_reciprocal(x, prefer_finite=prefer_finite, max_terms=256)
    return exp.weights()


def energy_form_at(x, s: float, tol: float = 1e-12) -> float:
    """The limit energy form at x in [1/2, 1]; equals 1 at both endpoints
    and for s in {0, 1}.

    Dyadic reciprocals have two expansions; both give the same value, and
    the terminating one is used.
    """
    return arith.energy_form(_weights_at(x), s, tol)


def log_kernel_form_at(x, tol: float = 1e-12) -> float:
    """The limit log-kernel form at x; expansion-independent."""
    return arith.log_kernel_form(_weights_at(x), tol)


def leja_offset_at(x, tol: float = 1e-12) -> float:
    """The limit offset function at x, ranging over [0, log(4/3)]."""
    return arith.leja_offset(_weights_at(x), tol)


def power_sum_at(x, s: float, tol: float = 1e-12) -> float:
    """The limit power sum at x for s > 0.

    Not expansion-independent: at a two-expansion x this uses the
    terminating expansion, which is the left-limit value; the infinite
    expansion gives the (different) right limit.
    """
    return arith.power_sum(_weights_at(x), s, tol)


def log_moment_at(x, tol: float = 1e-12) -> float:
    """The limit log moment at x, in [-2 log 2, 0]; finite-expansion
    convention as in :func:`power_sum_at`."""
    return arith.log_moment(_weights_at(x), tol)


def _chunk_values(ns: np.ndarray, target: str, s: Optional[float]) -> np.ndarray:
    mant, top = np.frexp(ns.astype(float))
    q = 2.0 * mant  # y, then q_k once bit k is removed
    x, logy = 1.0 / q, np.log(q)
    c = 2.0 * math.expm1(s * _LOG2) if target == "energy_form" else 0.0
    acc = np.zeros_like(q)
    for d in range(int(top.max())):
        w = 2.0 ** -d
        hit = q >= w
        hw = hit * w
        q -= hw
        if target == "energy_form":
            acc += 2.0 ** (-d * s) * (hw + c * (hit * q))
        elif target == "leja_offset":
            acc += d * hw - 2.0 * (hit * q)
        else:
            acc += w * ((d + 2) * hw + 2 * d * (hit * q))
    if target == "energy_form":
        return x ** (s + 1.0) * acc
    if target == "leja_offset":
        return logy + _LOG2 * x * acc
    return 2.0 * _LOG2 - logy - _LOG2 * x * x * acc


def batch_eta_values(ns, target: str, s: Optional[float] = None,
                     jobs: int = 1) -> np.ndarray:
    """Evaluate one arithmetic function on binary_weights(n) for an array
    of integers 1 <= n < 2^53.

    With n = 2^t y, y in [1, 2), x = 1/y and, for each exponent e_k of n,
    depth d_k = t - e_k and q_k = (n mod 2^{e_k}) 2^{-t} (so theta_k =
    x 2^{-d_k} and b_k = x q_k), one pass over the depths sums

    - energy_form = x^{s+1} sum 2^{-d_k s} (2^{-d_k} + 2(2^s - 1) q_k),
    - leja_offset = log y + x log 2 sum (d_k 2^{-d_k} - 2 q_k),
    - log_kernel_form = 2 log 2 - log y
      - x^2 log 2 sum 2^{-d_k} ((d_k + 2) 2^{-d_k} + 2 d_k q_k).

    Every term is built from exact dyadics and per-depth powers, and the
    only logarithm is of y, so nothing cancels against log n: the error
    against the exact evaluators in :mod:`rieszgreedy.arith` stays below
    2e-15 max(1, |value|) for n < 2^53 and s in [-0.9, 7].
    """
    if target not in SCAN_TARGETS:
        raise ValueError(f"target must be one of {SCAN_TARGETS}")
    if target == "energy_form" and s is None:
        raise ValueError("energy_form needs s")
    ns = np.ascontiguousarray(ns, dtype=np.int64)
    if ns.size == 0:
        return np.empty(0)
    if ns.min() < 1 or ns.max() >= 1 << 53:
        raise ValueError("integers must lie in [1, 2^53)")
    return np.concatenate([_chunk_values(ns[i:i + _CHUNK], target, s)
                           for i in range(0, ns.size, _CHUNK)])


@dataclass(frozen=True)
class ScanResult:
    """Exhaustive evaluation of one target over the order-m dyadic grid.

    ``xs``/``values`` hold the grid in decreasing-x order; ``extremum`` is
    the min for the energy form with 0 < s < 1 and the max otherwise, with
    ties resolved to the smallest x.  ``error_bound`` certifies the
    distance to the true extremal constant for the energy form (no such
    certificate is known for the log-kernel or offset targets, whose only
    resolution statement is the grid spacing 2^{-m+1}).
    """

    m: int
    target: str
    s: Optional[float]
    xs: np.ndarray
    values: np.ndarray
    extremum: float
    arg: Fraction
    arg_index: int
    orientation: str
    error_bound: Optional[float]


def _certified_bound(s: float, m: int) -> float:
    if 0.0 < s < 1.0 or s > 1.0:
        return 2.0 ** s / 2.0 ** (m - 1)
    # -1 < s < 0
    return 2.0 ** ((1 - m) * (s + 1.0)) / (_LOG2 * math.expm1((s + 1.0) * _LOG2))


def scan_extremum(m: int, target: str, s: Optional[float] = None,
                  jobs: int = 1) -> ScanResult:
    """Scan one target over all 2^{m-1} grid points of order m.

    For the energy form: minimum when 0 < s < 1, maximum when -1 < s < 0
    or s > 1; s = 0 and s = 1 are rejected (the target is identically 1).
    The log-kernel and offset targets are maximized.
    """
    if not 1 <= m <= 24:
        raise ValueError("grid order m must be in [1, 24]")
    if target not in SCAN_TARGETS:
        raise ValueError(f"target must be one of {SCAN_TARGETS}")
    error_bound = None
    if target == "energy_form":
        if s is None:
            raise ValueError("energy_form needs s")
        if s in (0.0, 1.0):
            raise ValueError(f"energy form is identically 1 at s = {s}")
        if not -1.0 < s < math.inf:
            raise ValueError("energy form scan needs a finite s > -1")
        error_bound = _certified_bound(s, m)
    ns = (1 << m) + 1 + 2 * np.arange(1 << (m - 1), dtype=np.int64)
    values = batch_eta_values(ns, target, s, jobs)
    xs = float(1 << m) / ns.astype(float)
    minimize = target == "energy_form" and 0.0 < s < 1.0
    extremum = float(values.min() if minimize else values.max())
    # ties break to the smallest x, i.e. the largest odd integer
    idx = int(np.nonzero(values == extremum)[0][-1])
    arg = Fraction(1 << m, int(ns[idx]))
    return ScanResult(m, target, s, xs, values, extremum, arg, idx,
                      "min" if minimize else "max", error_bound)


def interval_estimate(s: float, m: int, jobs: int = 1) -> tuple[float, float]:
    """Estimated closed interval of limit points of the scaled energy
    sequence with parameter s, from the order-m grid scan.

    One endpoint is known exactly (1 for the energy form, 0 for the s = 0
    and s = 1 targets); the other is the scanned extremum.
    """
    if s <= -1.0:
        raise ValueError("interval estimate needs s > -1")
    if s == 0.0:
        hi = scan_extremum(m, "leja_offset", jobs=jobs).extremum
        return (0.0, hi)
    if s == 1.0:
        hi = scan_extremum(m, "log_kernel_form", jobs=jobs).extremum
        return (0.0, hi)
    d = scan_extremum(m, "energy_form", s, jobs=jobs).extremum
    return (d, 1.0) if 0.0 < s < 1.0 else (1.0, d)


def stationarity_residual(x, s: float) -> float:
    """Stationarity diagnostic: the energy form at x minus
    2 (2^s - 1)/(s + 1) times the power sum of the infinite expansion.

    At interior extrema of the energy form (in x, for fixed s > 0, s != 1)
    this residual vanishes; at x = 1 it reduces to 1 - 2/(s + 1) and is a
    boundary diagnostic only.
    """
    if s <= 0.0 or s == 1.0:
        raise ValueError("stationarity diagnostic needs s > 0, s != 1")
    w_inf = expand_reciprocal(x, prefer_finite=False).weights()
    g = arith.power_sum(w_inf, s)
    h = arith.energy_form(w_inf, s)
    return h - 2.0 * math.expm1(s * _LOG2) / (s + 1.0) * g


def child_identities(m: int, n: int, s: float):
    """Evaluate both sides of the two parent-child grid identities linking
    order m to order m + 1.

    The point x = 2^m/(2^m + 2n + 1) has children 2n + 1 (expansion
    extended by the exponent m + 1) and 2n (last exponent m replaced by
    m + 1) at order m + 1.  Returns ((lhs, rhs), (lhs, rhs)) for the two
    identities; each pair agrees to rounding error.
    """
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
    c = math.expm1(s * _LOG2)  # 2^s - 1

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
