"""Real-argument special functions used by the energy expansions.

zeta(s) is evaluated with Borwein's alternating-series acceleration for
s > 0 and the functional equation (in log space, to dodge intermediate
overflow) for s <= 0.  digamma uses the classical asymptotic series after
shifting the argument up.  No lookup tables; everything is plain IEEE
double arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

__all__ = [
    "zeta",
    "regularized_zeta",
    "digamma",
    "arclength_energy",
    "SincPowerSeries",
    "sinc_power_series",
    "sinc_coeff_derivative",
    "log_term_constant",
    "RootsExpansion",
    "roots_expansion",
    "EULER_GAMMA",
]

EULER_GAMMA = 0.5772156649015328606

#: Largest |s| the zeta evaluator accepts.
ZETA_RANGE = 200.0

#: Within this distance of a pole or branch point in s, but not on it,
#: s is rejected rather than taken to either side.
BRANCH_GUARD = 1e-9

# Borwein's "algorithm 2": with d_k = n sum_{i<=k} (n+i-1)! 4^i / ((n-i)!(2i)!),
# eta(s) ~ -(1/d_n) sum_{k<n} (-1)^k (d_k - d_n) / (k+1)^s with error
# O((3+sqrt(8))^-n) for real s > 0.  n = 56 leaves ~1e-42 headroom.
_BORWEIN_N = 56


@lru_cache(maxsize=1)
def _borwein_weights() -> tuple[float, ...]:
    n = _BORWEIN_N
    d = [0] * (n + 1)
    val = 1  # n (n+i-1)! 4^i / ((n-i)! (2i)!), an exact integer
    acc = 0
    for i in range(n + 1):
        if i > 0:
            # multiply by (n+i-1)(n-i+1) * 4 / ((2i)(2i-1))
            val = val * (n + i - 1) * (n - i + 1) * 4 // ((2 * i) * (2 * i - 1))
        acc += val
        d[i] = n * acc
    dn = d[n]
    return tuple((dk - dn) / dn for dk in d[:n])


def finite_s(s) -> float:
    """s as a float; ValueError "s = nan is not finite" (or inf, -inf)."""
    if not math.isfinite(s := float(s)):
        raise ValueError(f"s = {s} is not finite")
    return s


def _eta_series(s: float) -> float:
    """Dirichlet eta(s) = sum (-1)^{k-1} k^-s, accelerated; s > 0."""
    w = _borwein_weights()
    total = 0.0
    for k in range(_BORWEIN_N - 1, -1, -1):
        term = w[k] * (k + 1.0) ** (-s)
        total = total - term if k & 1 else total + term
    return -total


def _sin_half_pi(s: float) -> float:
    """sin(pi s / 2) with exact argument reduction.

    fmod by 4 and the split at the nearest integer are both exact in
    binary floating point, so the result keeps full relative accuracy
    even next to the zeros (where naive evaluation loses ~3 digits).
    """
    m = math.fmod(s, 4.0)
    n = round(m)
    f = m - n  # exact: |f| <= 1/2 and both operands share a fine enough grid
    r = int(n) % 4
    if r == 0:
        return math.sin(0.5 * math.pi * f)
    if r == 1:
        return math.cos(0.5 * math.pi * f)
    if r == 2:
        return -math.sin(0.5 * math.pi * f)
    return -math.cos(0.5 * math.pi * f)


def zeta(s: float) -> float:
    """Riemann zeta function for real s != 1, |s| <= 200."""
    s = finite_s(s)
    if abs(s - 1.0) < BRANCH_GUARD:
        raise ValueError("zeta has a pole at s = 1")
    if abs(s) > ZETA_RANGE:
        raise ValueError(f"|s| = {abs(s)} outside supported range {ZETA_RANGE}")
    if s > 0.0:
        return _zeta_positive(s)
    if s == 0.0:
        return -0.5
    if s == round(s):
        n = -int(round(s))
        if n % 2 == 0:
            return 0.0  # trivial zeros at negative even integers
        return float(-_bernoulli(n + 1) / (n + 1))  # exact rational value
    # functional equation zeta(s) = 2 (2pi)^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
    sinv = _sin_half_pi(s)
    z = _zeta_positive(1.0 - s)  # 1-s > 1, always positive
    x = 1.0 - s
    lead = 2.0 * (2.0 * math.pi) ** (s - 1.0) * sinv * z
    if x <= 170.0:
        # Gamma fits in a double: plain products keep ulp-level accuracy
        return lead * math.gamma(x)
    # Gamma(x) alone would overflow; peel linear factors off it and fold
    # them into the (tiny) leading factor one at a time
    shift = int(x - 170.0) + 1
    val = lead * math.gamma(x - shift)
    for j in range(1, shift + 1):
        val *= x - j
    return val


def _zeta_positive(s: float) -> float:
    # zeta = eta / (1 - 2^(1-s)); the denominator via expm1 keeps full
    # relative accuracy near the pole
    denom = -math.expm1((1.0 - s) * math.log(2.0))
    return _eta_series(s) / denom


def regularized_zeta(s: float) -> float:
    """(s - 1) zeta(s) for 0 < s <= 200: finite through the pole, where it
    equals 1, and accurate to a few ulps right next to it."""
    s = finite_s(s)
    if not 0.0 < s <= ZETA_RANGE:
        raise ValueError(f"regularized zeta needs 0 < s <= {ZETA_RANGE}, got {s}")
    if s == 1.0:
        return 1.0
    e = s - 1.0
    return _eta_series(s) * (e / -math.expm1(-e * math.log(2.0)))


@lru_cache(maxsize=None)
def _bernoulli_numbers(m: int) -> tuple:
    """B_0..B_m (B_1 = -1/2) as exact Fractions, B_m from the others by
    sum_{k <= m} binomial(m + 1, k) B_k = 0: only as far as asked, as
    zeta(-1) and zeta(-3) need B_2 and B_4 alone."""
    from fractions import Fraction
    if m == 0:
        return (Fraction(1),)
    b = _bernoulli_numbers(m - 1)
    acc = Fraction(0)
    c = 1  # binomial(m+1, k), updated incrementally
    for k in range(m):
        acc += c * b[k]
        c = c * (m + 1 - k) // (k + 1)
    return b + (-acc / (m + 1),)


def _bernoulli(m: int):
    return _bernoulli_numbers(m)[m]


# Asymptotic tail coefficients B_2n / 2n of log Gamma', i.e. psi(x) ~
# log x - 1/(2x) - sum c_j / x^(2j); valid shift target x >= 10.
_PSI_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Digamma function psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"digamma needs x > 0, got {x}")
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    w = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_PSI_TAIL):
        tail = (tail + c) * w
    return math.log(x) - 0.5 / x - tail - shift


def _is_integer(s: float) -> bool:
    return s == round(s)


def _gamma_ratio(h: float) -> float:
    """Gamma(h + 1/2) / Gamma(h + 1) for 1 <= h < 2^51, as Gamma k >= 1
    steps down times k factors, at exact arguments: h - j + 1/2 and
    h - j + 1, j >= 1, lie below h on its ulp grid, where h + 1 itself
    can round (h in [127, 128): 7e-14 relative)."""
    k = max(1, int(h) - 160)
    ratio = math.gamma(h - k + 0.5) / math.gamma(h - k + 1.0)
    for j in range(1, k + 1):
        ratio *= (h - j + 0.5) / (h - j + 1.0)
    return ratio


def arclength_energy(s: float) -> float:
    """Riesz s-energy of normalized arclength on the unit circle.

    Evaluates 2^-s Gamma((1-s)/2) / (sqrt(pi) Gamma(1 - s/2)), the value of
    the pair integral of |x - y|^-s for -2 < s < 1 and its analytic
    continuation elsewhere.  Vanishes at positive even integers; poles at
    odd positive integers are rejected.  Below s = -268.25, where 2^-s
    Gamma((1-s)/2) overflows, the value is within 5e-15 of mpmath's (4.1e-15
    the largest gap over 3000 random s); below s = -1029.3 it is beyond the
    float range, and OverflowError names s.  Above s = 171, where the two
    Gammas head for underflow (at s = 300.5 the product 2^-s Gamma((1-s)/2)
    is 0.0), it is the reflected form 2^-s tan(pi s/2) Gamma(s/2) /
    (sqrt(pi) Gamma(s/2 + 1/2)), within 5e-15 |value| + 2^-1074 of
    mpmath's (4.1e-15 the largest relative gap over 4000 random s in
    (171, 1100) with a normal value), and a signed 0.0 only where the
    value itself underflows (s = 100000.5).
    """
    s = finite_s(s)
    if _is_integer(s) and s > 0:
        n = int(round(s))
        if n % 2 == 1:
            raise ValueError(f"arclength energy has a pole at s = {n}")
        return 0.0
    if s > 171.0:
        f = 0.5 * s - round(0.5 * s)  # tan(pi s/2) = tan(pi f), |f| < 1/2 exact
        tan = (math.tan(math.pi * f) if abs(f) <= 0.25  # near a pole, as 1/tan
               else math.copysign(1.0 / math.tan(math.pi * (0.5 - abs(f))), f))
        if s - math.log2(abs(tan)) > 1076.0:  # below half the least subnormal
            return math.copysign(0.0, tan)
        return _finish(s, tan * _gamma_ratio(0.5 * s - 0.5))
    try:
        value = (2.0 ** (-s) * math.gamma((1.0 - s) / 2.0)
                 / (math.sqrt(math.pi) * math.gamma(1.0 - s / 2.0)))
    except OverflowError:
        value = math.inf
    if value < math.inf:
        return value
    # Gamma(h + 1/2) / Gamma(h + 1), h = -s/2, at exact arguments: 1 - s/2
    # itself can round, which Gamma's slope makes 3e-13 relative near s = -1022
    return _finish(s, _gamma_ratio(-0.5 * s))


def _finish(s: float, r: float) -> float:
    """The arclength energy 2^-s r / sqrt(pi) from its Gamma part r, with
    2^-s split as 2^{-s - e} 2^e, e = floor(-s), so that neither factor
    leaves the float range before the value does."""
    e = math.floor(-s)
    try:
        return math.ldexp(2.0 ** (-s - e) * r / math.sqrt(math.pi), e)
    except OverflowError:
        raise OverflowError(f"the arclength energy at s = {s} is beyond the "
                            "float range") from None


@dataclass(frozen=True)
class SincPowerSeries:
    """Maclaurin coefficients of (sin(pi z)/(pi z))^-s in powers of z^2.

    coeffs[n] multiplies z^(2n); coeffs[0] == 1 always.
    """

    s: float
    coeffs: tuple[float, ...]

    def __call__(self, z: float) -> float:
        """Evaluate the truncated series at z."""
        w = z * z
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * w + c
        return acc


@lru_cache(maxsize=256)
def sinc_power_series(s: float, terms: int) -> SincPowerSeries:
    """First ``terms`` coefficients (degree 0 .. terms-1) of sinc^-s.

    Built by exponentiating the log-sinc series: with w = z^2,
    -s log sinc z = sum_{k>=1} s zeta(2k) w^k / k, and exp() of a power
    series follows the standard O(J^2) convolution recurrence.  This is
    numerically stable and yields the whole table at once.
    """
    s = finite_s(s)
    if terms < 1:
        raise ValueError("need at least one coefficient")
    if terms > 65:
        raise ValueError("coefficient table limited to degree 64")
    j_max = terms - 1
    a = [0.0] + [s * zeta(2.0 * k) / k for k in range(1, j_max + 1)]
    b = [1.0] + [0.0] * j_max
    for n in range(1, j_max + 1):
        b[n] = math.fsum(k * a[k] * b[n - k] for k in range(1, n + 1)) / n
    return SincPowerSeries(float(s), tuple(b))


def sinc_coeff_derivative(m: int) -> float:
    """d/ds of the degree-m sinc-power coefficient, taken at s = 2m + 1.

    Equals sum_{k=0}^{m-1} b_k(2m+1) zeta(2(m-k)) / (m-k); zero for m = 0.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return 0.0
    table = sinc_power_series(2.0 * m + 1.0, m).coeffs
    return math.fsum(table[k] * zeta(2.0 * (m - k)) / (m - k) for k in range(m))


def log_term_constant(m: int) -> float:
    """The constant attached to the N^2 term of the odd-exponent energy
    expansion (s = 2m + 1); equals log 2 at m = 0.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    b_m = sinc_power_series(2.0 * m + 1.0, m + 1).coeffs[m]
    return (sinc_coeff_derivative(m) / b_m
            + 0.5 * digamma(m + 1.0) - 0.5 * digamma(m + 0.5))


@dataclass(frozen=True)
class RootsExpansion:
    """Coefficients of the large-N expansion of the Riesz s-energy of the
    N-th roots of unity (Brauchart, Hardin & Saff, Bull. LMS 41, 2009):

        L(N) ~ I_s N^2 + sum_{j>=0} c_j N^{1+s-2j},
        c_j = 2 b_j(s) zeta(s - 2j) / (2 pi)^s,

    with I_s the :func:`arclength_energy` and b_j the coefficients of
    :func:`sinc_power_series`.  At an odd s = 2m + 1, I_s and c_m have
    poles that cancel: their sum is q N^2 (log N + log_constant).

    ``pole`` is that m when s lies on 2m + 1 or within the band given to
    :func:`roots_expansion`; ``coeffs`` then holds 0.0 at j = m, and
    ``residue`` the finite (s - 2m - 1) c_m (if m is among the terms).
    ``arclength`` is I_s, 0.0 when ``pole`` is set; ``log_factor`` (q)
    and ``log_constant`` are set only on an odd integer.
    """

    s: float
    coeffs: tuple[float, ...]
    arclength: float = 0.0
    pole: Optional[int] = None
    residue: float = 0.0
    log_factor: float = 0.0
    log_constant: float = 0.0


def roots_expansion(s: float, top: int, band: float = 0.0) -> RootsExpansion:
    """The :class:`RootsExpansion` coefficients c_0 .. c_top at s, with
    ``pole`` set where s is an odd positive integer or lies within
    ``band`` of one."""
    s = finite_s(s)
    m = round((s - 1.0) / 2.0)
    eps = s - (2.0 * m + 1.0)
    pole = m if m >= 0 and (eps == 0.0 or abs(eps) < band) else None
    b = sinc_power_series(s, top + 1).coeffs if top >= 0 else ()
    front = 2.0 / (2.0 * math.pi) ** s
    coeffs = tuple(0.0 if j == pole else front * b[j] * zeta(s - 2.0 * j)
                   for j in range(top + 1))
    if pole is None:
        return RootsExpansion(s, coeffs, arclength_energy(s))
    residue = front * b[m] * regularized_zeta(s - 2.0 * m) if m <= top else 0.0
    if eps != 0.0:
        return RootsExpansion(s, coeffs, pole=m, residue=residue)
    q = math.gamma(m + 0.5) / (math.sqrt(math.pi) * math.pi * 4.0 ** m
                               * math.factorial(m))
    const = EULER_GAMMA - math.log(math.pi) + log_term_constant(m)
    return RootsExpansion(s, coeffs, pole=m, residue=residue, log_factor=q,
                          log_constant=const)
