"""The arithmetic functions of normalized binary weight vectors that govern
greedy-energy asymptotics.

All evaluators accept a :class:`~rieszgreedy.binary.WeightVector` and
return floats.  The vector's suffix masses b_k = 1 - (theta_1 + ... +
theta_k), summed exactly when it was built, are rounded once each, which
keeps the inner double sums O(p) and free of cancellation.  An exact
geometric unit tail (c, c/2, ...) is folded in through closed forms, so
vectors coming from dyadic reciprocals evaluate exactly up to double
rounding.
"""

from __future__ import annotations

import math

from .binary import WeightVector
from .special import finite_s

__all__ = [
    "energy_form",
    "log_kernel_form",
    "leja_offset",
    "power_sum",
    "log_moment",
]

_LOG2 = math.log(2.0)
_LOG4 = math.log(4.0)


def _pow2m1(s: float) -> float:
    """2^s - 1, accurate near s = 0."""
    return math.expm1(s * _LOG2)


def _expanded(w: WeightVector) -> tuple[list[float], list[float]]:
    """Float components and suffix masses, with any exact unit tail replaced
    by its single-component equivalent 2c, whose suffix mass is 0.

    The replacement leaves the quadratic-form, log-kernel, and offset
    evaluations unchanged: the geometric tail (c, c/2, ...) contributes to
    each of them exactly what a final component of value 2c does, and the
    head terms only see the tail through its total mass.
    """
    thetas = [float(t) for t in w.components]
    bs = [float(b) for b in w.suffix_masses()]
    if w.unit_tail is not None:
        thetas.append(float(2 * w.unit_tail))
        bs.append(0.0)
    return thetas, bs


def _check_truncation(w: WeightVector, per_tail_bound: float, tol: float,
                      name: str) -> None:
    if w.tail_bound != 0.0 and per_tail_bound > tol:
        raise ValueError(
            f"{name}: truncated tail may contribute {per_tail_bound:.3e} "
            f"> tol = {tol:.3e}; rebuild the expansion with more terms")


def energy_form(w: WeightVector, s: float, tol: float = 1e-12) -> float:
    """The quadratic-in-weights form
    sum_k theta_k^{s+1} + 2(2^s - 1) sum_k theta_k^s b_k.

    Identically 1 at s = 0 and s = 1.  Finite vectors admit any real s;
    vectors with an infinite or truncated tail require s > -1 (the form is
    unbounded below that).
    """
    finite_s(s)
    if not w.exact or w.unit_tail is not None:
        if s <= -1.0:
            raise ValueError("energy form needs s > -1 for infinite tails")
    p = len(w)
    if w.tail_bound != 0.0:
        # dropped terms are bounded by (2^{s+1}+3) 2^{-(n-1)(s+1)} each
        geom = 2.0 ** (-p * (s + 1.0)) / -math.expm1(-(s + 1.0) * _LOG2)
        _check_truncation(w, (_pow2m1(s + 1.0) + 4.0) * geom, tol, "energy_form")
    thetas, bs = _expanded(w)
    c = 2.0 * _pow2m1(s)
    return math.fsum(t ** (s + 1.0) + c * t ** s * b
                     for t, b in zip(thetas, bs))


def log_kernel_form(w: WeightVector, tol: float = 1e-12) -> float:
    """2 log 2 + sum_k theta_k^2 log(theta_k / 4)
    + 2 sum_k theta_k log(theta_k) b_k.

    Bounded by 5 log 4 in absolute value on vectors from integers.
    """
    p = len(w)
    _check_truncation(w, 6.0 / math.e * 2.0 ** (1 - p), tol, "log_kernel_form")
    thetas, bs = _expanded(w)
    return 2.0 * _LOG2 + math.fsum(
        t * t * (math.log(t) - _LOG4) + 2.0 * t * math.log(t) * b
        for t, b in zip(thetas, bs))


def leja_offset(w: WeightVector, tol: float = 1e-12) -> float:
    """-(2 log 2) sum_k (k-1) theta_k - sum_k theta_k log theta_k.

    For weights of an integer N this equals the translated, scaled
    logarithmic greedy energy at N exactly; it lies in [0, log(4/3)).
    """
    p = len(w)
    _check_truncation(w, _LOG2 * 2.0 ** (1 - p) * (3 * p + 4), tol, "leja_offset")
    thetas, _ = _expanded(w)
    return -math.fsum((2.0 * _LOG2 * k + math.log(t)) * t
                      for k, t in enumerate(thetas))


def power_sum(w: WeightVector, s: float, tol: float = 1e-12) -> float:
    """sum_k theta_k^s, for s > 0 on infinite vectors (any s on finite ones).

    Unlike the three forms above, this sum distinguishes the two
    expansions of a dyadic reciprocal; the exact unit tail is summed in
    closed form rather than collapsed.
    """
    finite_s(s)
    infinite = w.unit_tail is not None or not w.exact
    if infinite and s <= 0.0:
        raise ValueError("power sum needs s > 0 for infinite tails")
    if w.tail_bound != 0.0:
        p = len(w)
        geom = 2.0 ** (-p * s) / -math.expm1(-s * _LOG2)
        _check_truncation(w, geom, tol, "power_sum")
    total = math.fsum(float(t) ** s for t in w.components)
    if w.unit_tail is not None:
        c = float(w.unit_tail)
        total += c ** s / -math.expm1(-s * _LOG2)
    return total


def log_moment(w: WeightVector, tol: float = 1e-12) -> float:
    """sum_k theta_k log theta_k, in [-2 log 2, 0].

    Like :func:`power_sum`, sensitive to which expansion of a dyadic
    reciprocal produced the vector.
    """
    if w.tail_bound != 0.0:
        p = len(w)
        _check_truncation(w, _LOG2 * (p + 1) * 2.0 ** (1 - p), tol, "log_moment")
    total = math.fsum(float(t) * math.log(float(t)) for t in w.components)
    if w.unit_tail is not None:
        c = float(w.unit_tail)
        total += 2.0 * c * (math.log(c) - _LOG2)
    return total
