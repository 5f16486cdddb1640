"""Reference values for the benchmark's output checks.

Nothing here imports ``rieszgreedy``: every value is rebuilt from its
definition by a different route than the library takes.

* Panel values (the arithmetic forms of binary weights) are evaluated in
  mpmath at 30 significant digits from the binary decomposition of N.
* Roots-of-unity energies are summed in ``np.longdouble`` (64-bit
  mantissa on x86-64), level by level: the sine sum for 2n is the sum for
  n plus the odd-index terms, so one pass yields every power of two up to
  the largest one needed.  Powers are taken as exp(-s log x), which is
  accurate to a few long-double ulps and much faster than ``powl``.
* Greedy energies are rebuilt from those sums with the closed form over
  the binary decomposition, in long double with exact dyadic ratios.
"""

from __future__ import annotations

import mpmath
import numpy as np

LD = np.longdouble
_PI = LD("3.14159265358979323846264338327950288")
_CHUNK = 1 << 20

#: Tolerances, stated once.  Panel values are O(1) and the library's
#: vectorized scan matches exact arithmetic to a few ulps.  Greedy energies
#: combine at most 2p roots energies with coefficients in [-1, 1], so the
#: library's float64 result carries a few ulps of relative error.
PANEL_ABS_TOL = 1e-12
ENERGY_REL_TOL = 1e-12
#: T subtracts the continuum term I_s n^2 from E, so its absolute error is
#: a few ulps of (|E| + |I_s| n^2), divided by the scaling n^(1+s).
T_ULPS = 64.0


def exponents(n: int) -> list[int]:
    """Exponents of the set bits of n >= 1, largest first."""
    return [e for e in range(n.bit_length() - 1, -1, -1) if (n >> e) & 1]


def panel_value(target: str, s: float | None, n: int) -> float:
    """energy_form / log_kernel_form / leja_offset of the weights
    (2^{n_1}/n, ..., 2^{n_p}/n), from their defining sums in mpmath."""
    with mpmath.workdps(30):
        thetas = [mpmath.mpf(1 << e) / n for e in exponents(n)]
        prefix = 0
        tails = []
        for e in exponents(n):
            prefix += 1 << e
            tails.append(mpmath.mpf(n - prefix) / n)
        log2 = mpmath.log(2)
        if target == "energy_form":
            s = mpmath.mpf(s)
            c = 2 * (mpmath.power(2, s) - 1)
            total = mpmath.fsum(t ** (s + 1) + c * t ** s * b
                                for t, b in zip(thetas, tails))
        elif target == "log_kernel_form":
            total = 2 * log2 + mpmath.fsum(
                t * t * (mpmath.log(t) - 2 * log2) + 2 * t * mpmath.log(t) * b
                for t, b in zip(thetas, tails))
        elif target == "leja_offset":
            total = -mpmath.fsum((2 * log2 * k + mpmath.log(t)) * t
                                 for k, t in enumerate(thetas))
        else:
            raise ValueError(f"unknown panel target {target!r}")
        return float(total)


def arclength_energy(s: float) -> np.longdouble:
    """I_s = 2^-s Gamma((1-s)/2) / (sqrt(pi) Gamma(1 - s/2)), for s < 1."""
    with mpmath.workdps(30):
        s = mpmath.mpf(s)
        value = (mpmath.power(2, -s) * mpmath.gamma((1 - s) / 2)
                 / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - s / 2)))
        return LD(mpmath.nstr(value, 25))


def _odd_sine_sum(n: int, s: float) -> np.longdouble:
    """sum over odd j < n/2 of sin(pi j / n)^-s, in long double."""
    total = LD(0)
    neg_s = LD(-s)
    step = _PI / LD(n)
    for first in range(1, n // 2, 2 * _CHUNK):
        j = np.arange(first, min(first + 2 * _CHUNK, n // 2), 2, dtype=LD)
        total += np.sum(np.exp(neg_s * np.log(np.sin(j * step))))
    return total


class RootsReference:
    """Riesz s-energies L(2^k) of the 2^k-th roots of unity (ordered
    pairs, chord kernel), computed once per s and extended on demand."""

    def __init__(self, s: float):
        self.s = s
        # sums[k] = sum_{j=1}^{2^k - 1} sin(pi j / 2^k)^-s
        self._sums = [LD(0), LD(1)]

    def energy(self, k: int) -> np.longdouble:
        while len(self._sums) <= k:
            n = 1 << len(self._sums)
            self._sums.append(self._sums[-1] + 2 * _odd_sine_sum(n, self.s))
        return np.exp2(LD(-self.s)) * LD(1 << k) * self._sums[k]

    def greedy_energy(self, n: int) -> np.longdouble:
        """E(n) = sum_{k<p} (S_k/2^{n_k}) L(2^{n_k+1})
        + sum_k (1 - 2 S_k/2^{n_k}) L(2^{n_k}), S_k the suffix sums."""
        exps = exponents(n)
        if len(exps) == 1 and exps[0] == 0:
            return LD(0)
        total = LD(0)
        for k, e in enumerate(exps):
            suffix = sum(1 << f for f in exps[k + 1:])
            ratio = LD(suffix) / LD(1 << e)  # exact: a dyadic ratio
            if k < len(exps) - 1:
                total += ratio * self.energy(e + 1)
            total += (1 - 2 * ratio) * self.energy(e)
        return total
