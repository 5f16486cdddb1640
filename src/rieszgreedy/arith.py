"""The arithmetic functions of normalized binary weight vectors that govern
greedy-energy asymptotics.

All evaluators accept a :class:`~rieszgreedy.binary.WeightVector` and
return floats.  The vector's suffix masses b_k = 1 - (theta_1 + ... +
theta_k), summed exactly when it was built, are rounded once each, which
keeps the inner double sums O(p) and free of cancellation.  An exact
geometric unit tail (c, c/2, ...) is folded in through closed forms, so
vectors coming from dyadic reciprocals evaluate exactly up to double
rounding.  A weight that underflows to 0.0 raises OverflowError in every
evaluator.
"""

from __future__ import annotations

import math
from typing import Optional

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
    _representable(thetas[-1])  # the smallest, as the components decrease
    return thetas, bs


def _representable(smallest: float) -> None:
    """OverflowError where the smallest float weight underflows to 0.0."""
    if smallest == 0.0:
        raise OverflowError("a weight underflows to 0.0, beyond the float range")


def _float_weights(w: WeightVector) -> tuple[list[float], Optional[float]]:
    """Float components and the first element c of any exact unit tail
    (None without one), kept apart for the sums that tell the two
    expansions of a dyadic reciprocal apart."""
    thetas = [float(t) for t in w.components]
    c = None if w.unit_tail is None else float(w.unit_tail)
    _representable(thetas[-1] if c is None else c)
    return thetas, c


class TruncationError(ValueError):
    """A truncated tail may contribute more than tol."""


def _check_truncation(w: WeightVector, tol: float, name: str, bound) -> None:
    """Reject a truncated tail that ``bound(tau)`` says may contribute more
    than tol.  Its i-th theta is at most tau 2^{1-i}: at most the tail mass
    tau = ``w.tail_bound``, and at most half its predecessor."""
    if w.tail_bound != 0.0 and (worst := bound(w.tail_bound)) > tol:
        raise TruncationError(
            f"{name}: truncated tail may contribute {worst:.3e} "
            f"> tol = {tol:.3e}; rebuild the expansion with more terms")


def _log_tail(tau: float) -> float:
    """Bounds sum theta |log theta| over the tail: theta <= u = tau 2^{1-i}
    gives theta |log theta| <= u max(-log u, 1)."""
    return 2.0 * tau * (max(-math.log(tau), 1.0) + _LOG2)


def energy_form_s(s) -> float:
    """s, checked finite and below 1023, where 2 (2^s - 1) overflows."""
    if (s := finite_s(s)) >= 1023.0:
        raise ValueError(f"energy form needs s < 1023, got s = {s}")
    return s


def energy_form(w: WeightVector, s: float, tol: float = 1e-12) -> float:
    """The quadratic-in-weights form
    sum_k theta_k^{s+1} + 2(2^s - 1) sum_k theta_k^s b_k.

    Identically 1 at s = 0 and s = 1.  Finite vectors admit any s < 1023; vectors
    with an infinite or truncated tail require s > -1 (the form is unbounded below).
    """
    if energy_form_s(s) <= -1.0 and (not w.exact or w.unit_tail is not None):
        raise ValueError("energy form needs s > -1 for infinite tails")
    # a dropped theta contributes at most (2^{s+1} + 3) theta^{s+1}
    _check_truncation(w, tol, "energy_form", lambda tau: (_pow2m1(s + 1.0) + 4.0)
                      * tau ** (s + 1.0) / -math.expm1(-(s + 1.0) * _LOG2))
    thetas, bs = _expanded(w)
    c = 2.0 * _pow2m1(s)
    return math.fsum(t ** (s + 1.0) + c * t ** s * b
                     for t, b in zip(thetas, bs))


def log_kernel_form(w: WeightVector, tol: float = 1e-12) -> float:
    """2 log 2 + sum_k theta_k^2 log(theta_k / 4)
    + 2 sum_k theta_k log(theta_k) b_k.

    Bounded by 5 log 4 in absolute value on vectors from integers.
    """
    # a dropped theta contributes at most (6 / e) theta
    _check_truncation(w, tol, "log_kernel_form", lambda tau: 6.0 / math.e * tau)
    thetas, bs = _expanded(w)
    return 2.0 * _LOG2 + math.fsum(
        t * t * (math.log(t) - _LOG4) + 2.0 * t * math.log(t) * b
        for t, b in zip(thetas, bs))


def leja_offset(w: WeightVector, tol: float = 1e-12) -> float:
    """-(2 log 2) sum_k (k-1) theta_k - sum_k theta_k log theta_k.

    For weights of an integer N this equals the translated, scaled
    logarithmic greedy energy at N exactly; it lies in [0, log(4/3)).
    """
    # the i-th dropped theta has the index p + i
    _check_truncation(w, tol, "leja_offset",
                      lambda tau: tau * _LOG2 * (4 * len(w) + 4) + _log_tail(tau))
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
    _check_truncation(w, tol, "power_sum",
                      lambda tau: tau ** s / -math.expm1(-s * _LOG2))
    thetas, c = _float_weights(w)
    total = math.fsum(t ** s for t in thetas)
    if c is not None:
        total += c ** s / -math.expm1(-s * _LOG2)
    return total


def log_moment(w: WeightVector, tol: float = 1e-12) -> float:
    """sum_k theta_k log theta_k, in [-2 log 2, 0].

    Like :func:`power_sum`, sensitive to which expansion of a dyadic
    reciprocal produced the vector.
    """
    _check_truncation(w, tol, "log_moment", _log_tail)
    thetas, c = _float_weights(w)
    total = math.fsum(t * math.log(t) for t in thetas)
    if c is not None:
        total += 2.0 * c * (math.log(c) - _LOG2)
    return total
