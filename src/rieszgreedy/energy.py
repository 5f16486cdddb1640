"""Exact Riesz energies on the unit circle: roots-of-unity energies, the
closed-form energy and extremal potential of greedy configurations via
binary decomposition, and a brute-force greedy construction used as an
independent oracle.

Distances are always the chord |e^{ia} - e^{ib}| = 2 |sin((a - b)/2)|,
evaluated in that trigonometric form to avoid cancellation near
coincident points.  Every function takes the Riesz parameter s as a float;
s = 0 is the kernel -log|z - w|.

Greedy energies E and potentials U are sums over the set bits e of n of
one per-exponent table: the roots-of-unity energy L(2^e), and D(2^e) =
L(2^{e+1}) - 2 L(2^e) = 2^{e+1} V(2^e), V(M) the potential of the M-th
roots of unity at a midpoint between two.  With S_e = n mod 2^e,
E(n) = sum_e [L(2^e) + 2 S_e V(2^e)] and U_n = sum_e V(2^e), no difference
of energies; over the truncated expansion of L the same walk gives
:func:`~rieszgreedy.asymptotics.expansion_energy`.

The scalars sum the terms of one n of any size with math.fsum.  The array
forms (n < 2^53) return the same floats from a numpy kernel: each n's
terms go into hi + lo by TwoSum (Sum2 of Ogita, Rump & Oishi), and
r = fl(hi + lo) is kept where the Sum2 error bound, r's own rounding
error and the gap to r's neighbours prove it the correctly rounded sum,
which is what fsum returns (see :func:`_certified`).  The other rows (ties,
inf or nan terms, zero sums: 0-65 of 2^20 n) take the fsum loop.
Timings (2-core Xeon, s = 1/2, tables cached): over n = 2..16384,
greedy_energies takes 5-6 ms and extremal_potentials 3 ms (fsum per n:
24-29 and 17 ms); over 2^20 n, 0.37-0.41 s and 0.2 s (3.4-3.6 and 2.5 s).
One n takes 11-19 us; a one-element array takes 0.26-0.31 ms, the
kernel's fixed cost (the fsum loop over a block took 14-28 us).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .special import RootsExpansion, finite_s, roots_expansion
# unused here, but perfbench/layertrace.py patches this name on this module
from .binary import decompose  # noqa: F401

__all__ = [
    "CircleConfig",
    "roots_energy",
    "greedy_energy",
    "greedy_energies",
    "extremal_potentials",
    "greedy_oracle",
    "extremal_potential",
    "prefix_energies",
]

_TWO_PI = 2.0 * math.pi

#: n summed per block by the certified kernel, whose eight work arrays
#: (512 KB) stay in cache: over 2^20 n blocks of 2^12, 2^13, 2^14 and
#: 2^15 took 0.43, 0.38, 0.36 and 0.41 s, over 2..16384 all about 5.5 ms.
_BLOCK = 1 << 13
#: Unit roundoff, and the largest sum |t| of the kernel's certificate.
_U = 2.0 ** -53
_HUGE = 2.0 ** 1020

#: Roots energies L(N) for N >= 2^16 come from their large-N expansion,
#: smaller ones from the direct sine sum.  The expansion costs 30-60 us
#: at any N, the sum 0.2 ms at 2^14 and 0.7 ms at 2^16, and the expansion
#: is accurate from 2^11 on (at 2^10 it is off by 6e-15 at s = -1.5).
#: Switching at 2^16 keeps every L(2^k) that n < 2^15 needs on the sum,
#: so those greedy energies are unchanged bit for bit.
EXPANSION_MIN_N = 1 << 16
#: Largest relative gap allowed between the two routes, and between the
#: expansion and the exact L(N), for -2 < s < 10.
ROOTS_RTOL = 2e-15
#: Within this distance of an odd s = 2m + 1 (but not on it) the I_s and
#: c_m terms of the expansion cancel; there L(N) is taken relative to the
#: direct sum at _ANCHOR.
POLE_BAND = 1.0 / 16.0
#: Its sum is 2^11 sines, and the expansion terms left out are below
#: 1e-17 of L there.
_ANCHOR = 1 << 12
#: Largest N whose energy is summed directly where the expansion does
#: not apply (s <= -2, or s >= 127, beyond the 65-coefficient sinc table).
_DIRECT_MAX = 1 << 24
#: Finest grid of the brute-force oracle: 2^22 angles, whose potential
#: and its temporaries peak at about 160 MB (540 MB at 2^24).
ORACLE_MAX_GRID_BITS = 22


def _greedy_s(s) -> float:
    """s as a float, inside the greedy regime s > -2: below it greedy
    sequences degenerate onto two antipodal points and are unsupported."""
    if (s := finite_s(s)) <= -2.0:
        raise ValueError(f"s = {s} <= -2 is outside the greedy regime")
    return s


@dataclass(frozen=True)
class CircleConfig:
    """A configuration of pairwise distinct points on the circle, stored
    as angles in [0, 2 pi)."""

    angles: tuple[float, ...]

    def __post_init__(self):
        if len(set(self.angles)) != len(self.angles):
            raise ValueError("configuration has coincident points")

    def __len__(self) -> int:
        return len(self.angles)


def _kernel_np(chord: np.ndarray, s: float) -> np.ndarray:
    """The kernel at each chord: inf at a coincident point, and inf where
    a large s takes chord^-s beyond the float range, without warnings."""
    with np.errstate(divide="ignore", over="ignore"):
        return -np.log(chord) if s == 0.0 else chord ** (-s)


@lru_cache(maxsize=4096)
def _roots_energy_cached(n: int, s: float) -> float:
    if n <= 1:
        return 0.0
    if s == 0.0:  # -inf also where n itself is beyond the float range
        return -n * math.log(n) if n <= sys.float_info.max else -math.inf
    if n < EXPANSION_MIN_N:
        return _roots_direct(n, s)
    top = math.floor((s + 1.0) / 2.0) + 1
    if s <= -2.0 or top > 64:
        if n > _DIRECT_MAX:
            raise ValueError(f"the energy of N = {n} roots of unity at s = {s} "
                             f"needs a sum of N/2 sines; N must not exceed 2^24")
        return _roots_direct(n, s)
    try:
        return _roots_expanded(n, s, roots_expansion(s, top, POLE_BAND))
    except OverflowError:
        return math.inf  # L(N) > 0 beyond the float range, as the sum gives


def _roots_direct(n: int, s: float) -> float:
    """sum (sin pi k/n)^-s over k = 1..n-1, folded onto k <= n/2 where the
    sine argument stays accurate; n/2 floats at once.

    The factor 2^-s comes after the sum, unless that leaves no finite
    result: for large s the sines' powers overflow (L(2^15) at s = 80 is
    1.6e302, its sin(pi/n)^-s term 2.2e326).  Then each term is taken as
    (2 sin)^-s, which overflows only where L(n) itself is beyond the float
    range (inf)."""
    sines = np.sin(np.pi * np.arange(1, (n + 1) // 2) / n)
    with np.errstate(over="ignore"):
        total = 2.0 * float(np.sum(sines ** (-s)))
        if n % 2 == 0:
            total += 1.0  # middle term, sin(pi/2)^-s
        energy = 2.0 ** (-s) * n * total
        if math.isfinite(energy):
            return energy
        total = 2.0 * float(np.sum((2.0 * sines) ** (-s)))
    if n % 2 == 0:
        total += 2.0 ** (-s)
    return n * total


def _scaled_terms(n: int, s: float, coeffs) -> list[float]:
    """c_j n^{s-1-2j} for the c_j in coeffs, j = 0, 1, ...

    Each power is n^s times a whole power of n, never a power with the
    rounded exponent s - 1 - 2j.  With n = 2^k y, y in [1, 2), k s is
    split exactly into e + f and n^s kept as m 2^e, m = 2^f y^s, until it
    meets its coefficient: c_j is as small as (2 pi)^-s, so the term can
    be finite where n^s is not."""
    k = n.bit_length() - 1
    ks = Fraction(s) * k
    e = math.floor(ks)
    y = n / (1 << k)
    m = 2.0 ** float(ks - e) * y ** s
    return [math.ldexp(c * (m * y ** (-1 - 2 * j)), e - k * (1 + 2 * j))
            for j, c in enumerate(coeffs)]


def _roots_expanded(n: int, s: float, ex: RootsExpansion) -> float:
    """L(n) from the expansion, as n^2 times the math.fsum of L(n) / n^2:

        I_s + sum_j c_j n^{s-1-2j}                       (generic s)
        q (log n + log_constant) + sum_{j != m} ...      (s = 2m + 1)
        L(M)/M^2 + sum_{j != m} c_j (n^{s-1-2j} - M^{s-1-2j})
                 + r_m M^e expm1(e log(n/M)) / e         (e = s - 2m - 1
                                                          in the pole band)

    with M = _ANCHOR and r_m = e c_m the residue (c_m is 0.0 in
    ``ex.coeffs``).  The last form has no pole: I_s drops out against
    L(M), and expm1 keeps (n^e - M^e) / e exact to a few ulps as e -> 0."""
    terms = _scaled_terms(n, s, ex.coeffs)
    if ex.pole is None:
        terms.append(ex.arclength)
    elif ex.log_factor:
        terms += [ex.log_factor * math.log(n), ex.log_factor * ex.log_constant]
    else:
        e = s - (2.0 * ex.pole + 1.0)
        ratio = math.expm1(e * math.log(n / _ANCHOR)) / e
        anchor = [ex.residue * ratio if j == ex.pole else -c
                  for j, c in enumerate(ex.coeffs)]
        terms += _scaled_terms(_ANCHOR, s, anchor)
        terms.append(_roots_energy_cached(_ANCHOR, s) / _ANCHOR ** 2)
    return math.fsum(terms) * float(n) ** 2


def roots_energy(n: int, s: float) -> float:
    """Riesz energy of the n-th roots of unity; 0 for n = 1 and
    -n log n for the logarithmic kernel.

    Below n = 2^16 (:data:`EXPANSION_MIN_N`) this is the direct sum over
    n/2 sines.  From there on, for -2 < s < 127, it is the large-N
    expansion of Brauchart, Hardin & Saff (see
    :class:`~rieszgreedy.special.RootsExpansion`) with the terms
    j = 0 .. floor((s + 1)/2) + 1, in O(1) memory for every n; at an odd
    s = 2m + 1 the j = m term and I_s n^2 give way to the log terms.
    Powers are n^s times whole powers of n, never n^{1+s-2j} with a
    rounded exponent.  For s within 1/16 (:data:`POLE_BAND`) of an odd
    integer, but not on it, I_s n^2 and the j = m term cancel (the relative
    error would grow like eps / (|s - 2m - 1| log n)); there the energy is
    taken relative to the direct sum at n = 2^12, which has no such pole.
    Against a long-double reference, for -2 < s < 10, the expansion is
    within 7e-16 relative at n = 2^16 .. 2^24 and the direct sum within
    1.2e-15 up to 2^22; the two routes agree within :data:`ROOTS_RTOL`
    = 2e-15.  For larger s the power -s multiplies the relative error of
    what it raises by s: the expansion loses up to s * 4e-17 more, from the
    rounding of pi (3.9e-17), and the direct sum up to s * 1.5e-16, as its
    sines also carry their own rounding (up to 1.1e-16); at s = 80 and
    n = 2^14 the sum is measured s * 8.2e-17 off.  Energies beyond the
    float range are inf.  Outside -2 < s < 127 the direct sum serves
    n <= 2^24, and larger n raise ValueError.
    """
    s = finite_s(s)
    if n < 1:
        raise ValueError("n must be >= 1")
    return _roots_energy_cached(n, s)


def greedy_energy(n: int, s: float) -> float:
    """Energy of the first n points of a greedy sequence, from the binary
    decomposition of n: sum_e [L(2^e) + 2 S_e V(2^e)] over its set bits e,
    S_e = n mod 2^e, V(M) = (L(2M) - 2 L(M)) / (2M).  The terms L(2^e) and
    (S_e / 2^e) D(2^e), S_e / 2^e exact below 2^53 and the term dropped where
    S_e / 2^e underflows to 0.0 (bits over 1074 apart; 0.0 * inf is nan), are
    summed with math.fsum; none is negative where one can be inf (s > 0), so an
    energy beyond the float range is inf.  Costs up to 2p cached L, p set bits.
    """
    s = _greedy_s(s)
    if n < 1:
        raise ValueError("n must be >= 1")
    return bit_sum(n, s, _roots_energy_cached, False)


def int_array(ns, smallest: int, successor: bool = False) -> np.ndarray:
    """ns as int64, each in [smallest, 2^53) where floats hold it exactly,
    and below 2^53 - 1 where its ``successor`` n + 1 must be held too."""
    ns = np.ascontiguousarray(ns, dtype=np.int64)
    if ns.size and (ns.min() < smallest or ns.max() >= (1 << 53) - successor):
        top = "2^53 - 1" if successor else "2^53"
        raise ValueError(f"n must lie in [{smallest}, {top})")
    return ns


def _tables(union: int, lows: int, s: float, table, potential: bool):
    """The per-exponent lists (first, doubling) of the walk over L(M) =
    ``table(M, s)``: first[e] is L(2^e) (potentials: D(2^e) / 2^{e+1}) at
    the bits e of ``union``, doubling[e] is D(2^e) at those of ``lows``,
    0.0 elsewhere.  The larger L is read first; D is inf where L(2^{e+1})
    is, so an inf L(2^e) makes no nan.  Top bit first: smallest first
    measured 7% more peak memory just below 2^24, as the allocator kept the
    freed mid-size sine arrays."""
    first, doubling = [0.0] * union.bit_length(), [0.0] * union.bit_length()
    for e in reversed(range(union.bit_length())):
        if lows >> e & 1:
            upper = table(2 << e, s)
            doubling[e] = upper if math.isinf(upper) else upper - 2 * table(1 << e, s)
        if union >> e & 1:
            first[e] = math.ldexp(doubling[e], -e - 1) if potential else table(1 << e, s)
    return first, doubling


def _exact(ns, first, doubling, potential: bool):
    """For each int n in ns, math.fsum over its set bits e of first[e] and,
    where S_e / 2^e is not 0.0 (S_e = n mod 2^e), (S_e / 2^e) doubling[e]
    (potentials: first[e] alone)."""
    for n in ns:
        terms = []
        while n:
            e = n.bit_length() - 1
            top = 1 << e
            n -= top
            terms.append(first[e])
            if not potential and (ratio := n / top):
                terms.append(ratio * doubling[e])
        yield math.fsum(terms)


def _certified(ns: np.ndarray, first, doubling, potential: bool):
    """The sums of :func:`_exact` over an int64 block of n < 2^53, and where
    each is certified equal to it.

    Top bit first, each term, the same float as there (0.0 at an unset
    bit), goes into (hi, lo) by TwoSum, with sum |t| alongside: Sum2 of
    Ogita, Rump & Oishi, "Accurate sum and dot product", SIAM J. Sci.
    Comput. 26 (2005), whose hi + lo is within B = gamma_{k-1}^2 sum |t| of
    the exact sum of k terms.  r = fl(hi + lo) is then the correctly rounded
    sum, which fsum returns, where

        2 B < spacing(nextafter(|r|, 0)) / 2 - |d|   and   sum |t| < 2^1020,

    d the exact error of r.  The factor 2 covers B's own rounding and
    underflow: where B is below 2^-1074, a positive right side, a
    difference of floats, is at least 2^-1074.  The second rule keeps r
    finite and every prefix of fsum's partials too.  A tie, an inf or nan
    term, and a zero or subnormal r (whose half gap is 0.0) are never
    certified."""
    hi, lo, mag, total, back, tmp, term = (np.zeros(ns.size) for _ in range(7))
    low = np.empty(ns.size, np.int64)
    with np.errstate(invalid="ignore", over="ignore"):
        for e in reversed(range(len(first))):
            if first[e] == 0.0 and doubling[e] == 0.0:
                continue
            on = np.bitwise_and(ns, 1 << e, out=low) != 0
            terms = [first[e]]
            if not potential:  # (S_e / 2^e) D(2^e)
                np.multiply(np.bitwise_and(ns, (1 << e) - 1, out=low),
                            math.ldexp(1.0, -e), out=term)
                terms.append(np.multiply(term, doubling[e], out=term))
            for t in terms:
                t = np.where(on, t, 0.0)
                np.add(hi, t, out=total)
                np.subtract(total, hi, out=back)
                np.subtract(hi, np.subtract(total, back, out=tmp), out=tmp)
                lo += tmp
                lo += np.subtract(t, back, out=back)
                hi, total = total, hi
                mag += np.abs(t, out=t)
        r = hi + lo
        back = r - hi
        d = (hi - (r - back)) + (lo - back)
        k = len(first) * (1 if potential else 2)
        gamma = (k - 1) * _U / (1.0 - (k - 1) * _U)
        half_gap = 0.5 * np.spacing(np.nextafter(np.abs(r), 0.0))
        ok = ((2.0 * gamma * gamma) * mag < half_gap - np.abs(d)) & (mag < _HUGE)
    return r, ok


def _sums(ns: np.ndarray, first, doubling, potential: bool) -> np.ndarray:
    """The sums of :func:`_exact` over an int64 array of n < 2^53, _BLOCK n
    at a time: :func:`_certified`, then the exact loop on the rows it
    leaves."""
    out = np.empty(ns.size)
    for i in range(0, ns.size, _BLOCK):
        block = ns[i:i + _BLOCK]
        values, ok = _certified(block, first, doubling, potential)
        rest = np.flatnonzero(~ok)
        if rest.size:
            values[rest] = np.fromiter(_exact(block[rest].tolist(), first, doubling,
                                              potential), float, rest.size)
        out[i:i + _BLOCK] = values
    return out


def bit_sum(n: int, s: float, table, potential: bool) -> float:
    """E(n), or U_n for potentials, over L(M) = ``table(M, s)``, for one
    n >= 1 of any size."""
    tables = _tables(n, n if potential else n & (n - 1), s, table, potential)
    return next(_exact((n,), *tables, potential))


def bit_sums(ns: np.ndarray, s: float, table, potential: bool) -> np.ndarray:
    """:func:`bit_sum` over an int64 array, bit-identical to it: one table
    for all n, summed _BLOCK n at a time by :func:`_certified`, and the
    rows it cannot certify by :func:`_exact` over the same lists."""
    union = int(np.bitwise_or.reduce(ns))
    lows = union if potential else int(np.bitwise_or.reduce(ns & (ns - 1)))
    return _sums(ns, *_tables(union, lows, s, table, potential), potential)


def greedy_energies(ns, s: float) -> np.ndarray:
    """:func:`greedy_energy` over an array of integers 1 <= n < 2^53,
    bit-identical to it."""
    s = _greedy_s(s)
    return bit_sums(int_array(ns, 1), s, _roots_energy_cached, False)


def extremal_potentials(ns, s: float) -> np.ndarray:
    """:func:`extremal_potential` over an array of integers 1 <= n < 2^53,
    bit-identical to it, with the same OverflowError."""
    s = _greedy_s(s)
    ns = int_array(ns, 1)
    potentials = bit_sums(ns, s, _roots_energy_cached, True)
    beyond = np.isinf(potentials)
    if beyond.any():  # the scalar raises, naming the first such n
        extremal_potential(int(ns[beyond.argmax()]), s)
    return potentials


def extremal_potential(n: int, s: float) -> float:
    """The extremal potential value attained by the (n+1)-st greedy point,
    U_n = sum_e V(2^e) over the set bits e of n, V as in :func:`greedy_energy`,
    summed with math.fsum; no energies are differenced.  V(2^e) needs
    L(2^{e+1}): where that is beyond the float range (inf), OverflowError
    names n and s, where an inf or nan would come out.
    """
    s = _greedy_s(s)
    if n < 1:
        raise ValueError("n must be >= 1")
    potential = bit_sum(n, s, _roots_energy_cached, True)
    if math.isinf(potential):
        raise OverflowError(f"the extremal potential at n = {n}, s = {s} "
                            f"needs a roots-of-unity energy beyond the float range")
    return potential


def prefix_energies(config: CircleConfig, s: float) -> list[float]:
    """Energies of all prefixes: entry k is the energy of the first k+1
    points (so entry 0 is 0)."""
    s = finite_s(s)
    ang = np.asarray(config.angles)
    out = [0.0]
    total = 0.0
    for i in range(1, len(ang)):
        chord = 2.0 * np.abs(np.sin(0.5 * (ang[i] - ang[:i])))
        total += 2.0 * float(np.sum(_kernel_np(chord, s)))
        out.append(total)
    return out


def _refine_extremum(angles: list[float], s: float, lo: float, hi: float,
                     minimize: bool, tol: float) -> float:
    """Locate the potential extremum in [lo, hi]: golden-section search
    followed by Newton steps on the analytic derivative.

    Golden section alone stalls at sqrt(eps) angle accuracy on a flat
    extremum; polishing the stationarity condition removes the first-order
    error that earlier points would otherwise inject into later steps.
    """
    ang = np.asarray(angles)

    def pot(z: float) -> float:
        chord = 2.0 * np.abs(np.sin(0.5 * (z - ang)))
        return float(np.sum(_kernel_np(chord, s)))

    sign = 1.0 if minimize else -1.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    glo, ghi = lo, hi
    c = ghi - invphi * (ghi - glo)
    d = glo + invphi * (ghi - glo)
    fc, fd = sign * pot(c), sign * pot(d)
    while ghi - glo > 1e-9:
        if fc < fd:
            ghi, d, fd = d, c, fc
            c = ghi - invphi * (ghi - glo)
            fc = sign * pot(c)
        else:
            glo, c, fc = c, d, fd
            d = glo + invphi * (ghi - glo)
            fd = sign * pot(d)
    z = 0.5 * (glo + ghi)

    # Newton on U'(z); with u = (z - a)/2 and T = 2|sin u|,
    #   U'  = -s sum T^{-s-1} sign(sin u) cos u          (s != 0)
    #   U'' =  s sum [(s+1) T^{-s-2} cos^2 u + T^{-s-1} |sin u| / 2]
    # and for the log kernel U' = -(1/2) sum cot u, U'' = (1/4) sum csc^2 u.
    # An inf or nan derivative ends the steps.
    for _ in range(6):
        u = 0.5 * (z - ang)
        su, cu = np.sin(u), np.cos(u)
        if s == 0.0:
            d1 = -0.5 * float(np.sum(cu / su))
            d2 = 0.25 * float(np.sum(1.0 / (su * su)))
        else:  # a large s can take these beyond the float range
            t = 2.0 * np.abs(su)
            with np.errstate(over="ignore", invalid="ignore"):
                d1 = -s * float(np.sum(t ** (-s - 1.0) * np.sign(su) * cu))
                d2 = s * float(np.sum((s + 1.0) * t ** (-s - 2.0) * cu * cu
                                      + 0.5 * t ** (-s - 1.0) * np.abs(su)))
        if d2 == 0.0 or not math.isfinite(d1) or not math.isfinite(d2):
            break
        step = d1 / d2
        z_new = min(max(z - step, lo), hi)
        if abs(z_new - z) < tol:
            z = z_new
            break
        z = z_new
    return z


def greedy_oracle(n: int, s: float, grid_bits: int = 20,
                  refine_tol: float = 1e-12) -> tuple[CircleConfig, float]:
    """Construct the first n greedy points by brute force and return them
    with their directly computed pairwise energy.

    Starts from a_0 = 1 (rotation invariance makes the energy independent
    of this choice) and, at each step, extremizes the potential over a
    uniform grid of 2^grid_bits angles followed by golden-section
    refinement to ``refine_tol``.  Minimizes for s >= 0, maximizes for
    -2 < s < 0.  Ties at grid resolution resolve to the smallest angle.
    grid_bits runs from log2(n) + 4 to :data:`ORACLE_MAX_GRID_BITS`.
    Raises RuntimeError when no grid angle has a finite potential (the
    kernel overflows, e.g. s = 1000 at n = 40).
    """
    s = _greedy_s(s)
    if not 2 <= n <= 4096:
        raise ValueError("oracle supports 2 <= n <= 4096")
    if grid_bits < math.ceil(math.log2(n)) + 4:
        raise ValueError(f"grid_bits = {grid_bits} too coarse for n = {n}")
    if grid_bits > ORACLE_MAX_GRID_BITS:
        raise ValueError(f"grid_bits = {grid_bits} exceeds {ORACLE_MAX_GRID_BITS}")
    size = 1 << grid_bits
    grid = _TWO_PI * np.arange(size) / size
    minimize = s >= 0.0

    angles = [0.0]
    potential = _kernel_np(2.0 * np.abs(np.sin(0.5 * grid)), s)
    cell = _TWO_PI / size
    for _ in range(1, n):
        idx = int(np.argmin(potential) if minimize else np.argmax(potential))
        if not math.isfinite(potential[idx]):
            raise RuntimeError("no usable extremum: all candidates coincide "
                               "with existing points")
        best = _refine_extremum(angles, s, grid[idx] - cell,
                                grid[idx] + cell, minimize, refine_tol)
        best %= _TWO_PI
        chord_min = min(2.0 * abs(math.sin(0.5 * (best - a))) for a in angles)
        if chord_min == 0.0:
            raise RuntimeError("refined extremum coincides with an existing point")
        angles.append(best)
        potential += _kernel_np(2.0 * np.abs(np.sin(0.5 * (grid - best))), s)

    config = CircleConfig(tuple(angles))
    return config, prefix_energies(config, s)[-1]
