"""Binary decompositions of integers, normalized binary weight vectors,
binary expansions of reciprocals 1/x for x in [1/2, 1], and the dyadic
scan grid 2^M / (2^M + 2n + 1).

Everything here is exact: decompositions are integer tuples and weight
components are `fractions.Fraction`.  A weight vector sums its components
once, when it is built, and keeps the suffix masses that sum gives;
reciprocals expand by integer long division.  Conversion to floating
point happens only inside the numerical evaluators that consume these
objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

__all__ = [
    "WeightVector",
    "ReciprocalExpansion",
    "decompose",
    "bit_count",
    "binary_weights",
    "expand_reciprocal",
    "grid_point",
    "grid_points",
]

#: Default number of expansion terms to materialize.  The mass beyond 64
#: terms is at most 2^-63, below double-precision resolution.
DEFAULT_MAX_TERMS = 64

_HALF = Fraction(1, 2)
_ONE = Fraction(1)


def decompose(n: int) -> tuple[int, ...]:
    """The exponents n_1 > n_2 > ... > n_p >= 0 of the set bits of a
    positive integer, n = 2^{n_1} + ... + 2^{n_p}."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    return tuple(i for i in reversed(range(n.bit_length())) if n >> i & 1)


def bit_count(n: int) -> int:
    """Number of ones in the binary representation of a positive integer."""
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    return n.bit_count()


@dataclass(frozen=True)
class WeightVector:
    """A normalized vector of positive dyadic-ratio weights summing to 1.

    ``components`` holds the explicitly materialized weights
    theta_1 >= theta_2 >= ... > 0 as exact rationals.  Two kinds of tail
    may follow them:

    * ``unit_tail`` is the first element c of an exact geometric tail
      (c, c/2, c/4, ...) of total mass 2c.  Such tails arise from the
      infinite binary expansion of a dyadic reciprocal and make the vector
      exact despite being infinite.
    * ``tail_bound`` bounds the mass of an *unknown* truncated remainder
      (0 for exact vectors).  The true vector always sums to exactly 1.

    Invariants enforced at construction: theta_1 in [1/2, 1],
    theta_k <= 1/(2^k - 1), and every suffix mass (including any tail)
    is at most the preceding component.
    """

    components: tuple[Fraction, ...]
    unit_tail: Optional[Fraction] = None
    tail_bound: float = 0.0
    _suffix: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = self.components
        if not comps:
            raise ValueError("weight vector must have at least one component")
        if self.unit_tail is not None and self.tail_bound != 0.0:
            raise ValueError("unit tail is exact; tail_bound must be 0")
        if self.tail_bound < 0.0:
            raise ValueError("tail_bound must be non-negative")
        if not _HALF <= comps[0] <= _ONE:
            raise ValueError(f"leading weight {comps[0]} outside [1/2, 1]")
        if self.unit_tail is not None:
            if self.unit_tail <= 0 or 2 * self.unit_tail > comps[-1]:
                raise ValueError("unit tail must start at least one binary place"
                                 " below the last component")
        prev = None
        running = Fraction(0)
        suffix = []
        for k, t in enumerate(comps, start=1):
            if t <= 0:
                raise ValueError(f"component {k} is not positive")
            if prev is not None and t > prev:
                raise ValueError("components must be non-increasing")
            if t.numerator * ((1 << k) - 1) > t.denominator:
                raise ValueError(f"component {k} exceeds 1/(2^{k}-1)")
            running += t
            suffix.append(_ONE - running)
            # suffix mass <= component, with any hidden tail counted exactly
            if suffix[-1] > t:
                raise ValueError("suffix mass exceeds a component")
            prev = t
        object.__setattr__(self, "_suffix", tuple(suffix))
        tail_mass = 2 * self.unit_tail if self.unit_tail is not None else Fraction(0)
        deficit = _ONE - running - tail_mass
        if deficit < 0 or deficit > Fraction(self.tail_bound):
            raise ValueError(f"weights sum to {running + tail_mass}, "
                             f"deficit {deficit} outside [0, tail_bound]")

    @property
    def exact(self) -> bool:
        return self.tail_bound == 0.0

    def __len__(self) -> int:
        return len(self.components)

    def suffix_masses(self) -> list[Fraction]:
        """b_k = 1 - (theta_1 + ... + theta_k), the mass beyond index k.

        Exact even for truncated vectors, because the underlying infinite
        vector sums to 1; summed once, at construction.
        """
        return list(self._suffix)


@lru_cache(maxsize=1 << 14)
def binary_weights(n: int) -> WeightVector:
    """The normalized binary parts (2^{n_1}/n, ..., 2^{n_p}/n) of n >= 1.

    Satisfies binary_weights(2 n) == binary_weights(n).
    """
    return WeightVector(tuple(Fraction(1 << e, n) for e in decompose(n)))


@dataclass(frozen=True)
class ReciprocalExpansion:
    """A binary expansion 1/x = sum_j 2^{-k_j} for x in [1/2, 1].

    ``exponents`` are the materialized k_1 < k_2 < ... (k_1 = 0 except for
    the infinite form of x = 1, which starts at 1).  If ``unit_tail_start``
    is set, the expansion continues exactly with t, t+1, t+2, ... from
    that exponent; otherwise ``tail_bound`` bounds the weight mass that a
    truncated expansion leaves unrepresented.
    """

    x: Fraction
    exponents: tuple[int, ...]
    unit_tail_start: Optional[int] = None
    tail_bound: float = 0.0

    def __post_init__(self):
        if not _HALF <= self.x <= _ONE:
            raise ValueError(f"x = {self.x} outside [1/2, 1]")
        if any(a >= b for a, b in zip(self.exponents, self.exponents[1:])):
            raise ValueError("exponents must be strictly increasing")
        if self.unit_tail_start is not None:
            if self.exponents and self.unit_tail_start <= self.exponents[-1]:
                raise ValueError("unit tail must start after the last exponent")
            if self.tail_bound != 0.0:
                raise ValueError("unit tail is exact; tail_bound must be 0")
        if not self.exponents and self.unit_tail_start is None:
            raise ValueError("empty expansion")

    @property
    def finite(self) -> bool:
        return self.unit_tail_start is None and self.tail_bound == 0.0

    def reconstruct(self) -> Fraction:
        """Exact sum of the expansion (including any unit tail)."""
        total = sum((Fraction(1, 1 << k) for k in self.exponents), Fraction(0))
        if self.unit_tail_start is not None:
            total += Fraction(1, 1 << (self.unit_tail_start - 1))
        return total

    def weights(self) -> WeightVector:
        """The induced weight vector (x 2^{-k_1}, x 2^{-k_2}, ...)."""
        comps = [self.x * Fraction(1, 1 << k) for k in self.exponents]
        tail = None
        if self.unit_tail_start is not None:
            tail = self.x * Fraction(1, 1 << self.unit_tail_start)
            if not comps:
                # keep at least one explicit component
                comps.append(tail)
                tail = tail / 2
        return WeightVector(tuple(comps), unit_tail=tail, tail_bound=self.tail_bound)

    def materialize(self, max_terms: int) -> "ReciprocalExpansion":
        """Expand a unit tail into explicit exponents, up to ``max_terms``
        total, recording the dropped mass in ``tail_bound``.

        Turns the exact lazy form into a plainly truncated expansion;
        useful for exercising truncated-tail evaluation paths.
        """
        if self.unit_tail_start is None:
            return self
        exps = list(self.exponents)
        t = self.unit_tail_start
        while len(exps) < max_terms:
            exps.append(t)
            t += 1
        remaining = self.x * Fraction(1, 1 << (t - 1))
        return ReciprocalExpansion(self.x, tuple(exps),
                                   tail_bound=math.nextafter(float(remaining),
                                                             math.inf))


def expand_reciprocal(x, prefer_finite: bool = True,
                      max_terms: int = DEFAULT_MAX_TERMS) -> ReciprocalExpansion:
    """Greedy binary expansion of 1/x for x in [1/2, 1].

    When 1/x is dyadic (an odd integer over a power of two) there are
    exactly two expansions: the terminating one, and the infinite one
    obtained by replacing the last term 2^{-k_m} with the geometric tail
    2^{-k_m-1} + 2^{-k_m-2} + ...  ``prefer_finite`` selects between them.
    All other x have a unique expansion, materialized up to ``max_terms``
    exponents with the leftover weight mass recorded in ``tail_bound``.

    Accepts Fraction, int, or float; floats are taken at their exact
    binary value.
    """
    xq = Fraction(x)
    if not _HALF <= xq <= _ONE:
        raise ValueError(f"x = {x} outside [1/2, 1]")
    if max_terms < 1:
        raise ValueError("max_terms must be positive")

    # 1/x less the terms taken so far is rem / (a 2^k), with x = a / b
    a, rem, k = xq.numerator, xq.denominator, 0
    exps: list[int] = []
    while rem and len(exps) < max_terms:
        # the next term is 2^-(k + shift), the largest not above rem / (a 2^k)
        shift = max(0, a.bit_length() - rem.bit_length())
        shift += (rem << shift) < a
        rem = (rem << shift) - a
        k += shift
        exps.append(k)
        if rem == a:
            # remainder equals the term just taken: the expansion is the
            # all-ones tail from here on (happens only for x = 1/2)
            return ReciprocalExpansion(xq, tuple(exps), unit_tail_start=k + 1)

    if rem == 0:
        if prefer_finite:
            return ReciprocalExpansion(xq, tuple(exps))
        # infinite twin: drop the last exponent, start a unit tail below it
        return ReciprocalExpansion(xq, tuple(exps[:-1]), unit_tail_start=exps[-1] + 1)

    # truncated: remaining weight mass is x * r < x * 2^-k_last; round the
    # bound one ulp up so the exact deficit can never exceed it
    bound = math.nextafter(float(xq) * 2.0 ** (-k), math.inf)
    return ReciprocalExpansion(xq, tuple(exps), tail_bound=bound)


def grid_point(m: int, n: int) -> Fraction:
    """The n-th point 2^m / (2^m + 2n + 1) of the order-m dyadic grid."""
    if m < 1:
        raise ValueError("grid order m must be >= 1")
    if not 0 <= n < (1 << (m - 1)):
        raise ValueError(f"grid index n = {n} outside [0, 2^{m - 1})")
    return Fraction(1 << m, (1 << m) + 2 * n + 1)


def grid_points(m: int) -> list[Fraction]:
    """All 2^{m-1} grid points of order m, in decreasing order.

    Every grid point has a terminating reciprocal expansion whose largest
    exponent is exactly m; the grid together with {1/2, 1} has consecutive
    gaps below 2^{-m+1}.
    """
    return [grid_point(m, n) for n in range(1 << (m - 1))]
