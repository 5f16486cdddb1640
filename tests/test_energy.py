import math
import operator
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import rieszgreedy

from rieszgreedy.arith import leja_offset
from rieszgreedy.asymptotics import f_from_potentials
from rieszgreedy.binary import binary_weights
from rieszgreedy import energy
from rieszgreedy.energy import (CircleConfig, extremal_potential,
                                extremal_potentials, greedy_energies,
                                greedy_energy, greedy_oracle, prefix_energies,
                                roots_energy)
from rieszgreedy.special import roots_expansion


def bits(values) -> list[int]:
    """The IEEE bit patterns of floats, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def pairwise_energy_reference(angles: np.ndarray, s: float) -> float:
    """Independent dense O(N^2) energy via the full chord matrix."""
    diff = angles[:, None] - angles[None, :]
    chord = 2.0 * np.abs(np.sin(0.5 * diff))
    np.fill_diagonal(chord, 1.0)
    with np.errstate(divide="ignore"):
        k = -np.log(chord) if s == 0.0 else chord ** (-s)
    np.fill_diagonal(k, 0.0)
    return float(np.sum(k))


class TestRootsEnergy:
    def test_single_point(self):
        for s in (-1.0, 0.0, 0.5, 2.0):
            assert roots_energy(1, s) == 0.0

    @pytest.mark.parametrize("s", [-1.5, -0.5, 0.5, 2.0, 3.5])
    def test_antipodal_pair(self, s):
        assert roots_energy(2, s) == pytest.approx(
            2.0 * 2.0 ** (-s), rel=1e-15)

    def test_log_case(self):
        for n in (2, 3, 10, 1000):
            assert roots_energy(n, 0.0) == -n * math.log(n)

    def test_inverse_square_closed_form(self):
        # the two-term zeta expansion collapses to (N^3 - N)/12 exactly
        for n in range(2, 51):
            assert roots_energy(n, 2.0) == pytest.approx(
                (n ** 3 - n) / 12.0, rel=1e-12)

    @pytest.mark.parametrize("s", [-0.5, 0.5, 2.0])
    def test_direct_pairwise_all_n(self, s):
        params = s
        for n in range(2, 513):
            angles = 2.0 * np.pi * np.arange(n) / n
            ref = pairwise_energy_reference(angles, s)
            assert roots_energy(n, params) == pytest.approx(ref, rel=1e-11)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            roots_energy(0, 1.0)

    @staticmethod
    def mp_roots_error(n, s):
        """Relative error of roots_energy(n) against a 40-digit sum with
        exact pi over the first 64 k from each end; for s >= 20 the terms
        left out are below 1e-30 of L(n)."""
        with mpmath.workdps(40):
            want = 2 * n * mpmath.fsum(
                (2 * mpmath.sin(mpmath.pi * k / n)) ** -mpmath.mpf(s)
                for k in range(1, 65))
            got = mpmath.mpf(roots_energy(n, s))
            return float(abs(got / want - 1))

    @pytest.mark.parametrize("s", [20.0, 40.0, 80.0])
    def test_direct_sum_at_large_s(self, s):
        # each sine carries the rounding of pi (3.9e-17) and its own
        # (up to 1.1e-16), and the power -s multiplies both by s
        for k in (10, 12, 14):
            assert self.mp_roots_error(1 << k, s) <= energy.ROOTS_RTOL + s * 1.5e-16

    @pytest.mark.parametrize("s", [1060.5, 1200.0])
    def test_direct_sum_where_two_to_the_minus_s_is_not_normal(self, s):
        # 2^-s is subnormal above s = 1022 and 0.0 above 1074, so each term
        # is taken as (2 sin)^-s; the bound is that of the direct sum above
        for n in (3, 4, 5, 8):
            with mpmath.workdps(40):
                want = n * mpmath.fsum(
                    (2 * mpmath.sin(mpmath.pi * k / n)) ** -mpmath.mpf(s)
                    for k in range(1, n))
                error = float(abs(mpmath.mpf(roots_energy(n, s)) / want - 1))
            assert error <= energy.ROOTS_RTOL + s * 1.5e-16, n

    @pytest.mark.parametrize("s", [-1023.5, -1100.0])
    def test_direct_sum_where_two_to_the_minus_s_overflows(self, s):
        # 2^-s is inf from s = -1024 down, so each term is taken as
        # (2 sin)^-s; an energy beyond the float range is inf (every even
        # n, whose middle term n 2^-s alone exceeds it, and 7 at s = -1100)
        for n in (2, 3, 4, 5, 7, 8):
            with mpmath.workdps(40):
                want = n * mpmath.fsum(
                    (2 * mpmath.sin(mpmath.pi * k / n)) ** -mpmath.mpf(s)
                    for k in range(1, n))
                got = roots_energy(n, s)
                if want > sys.float_info.max:
                    assert got == math.inf, n
                    continue
                error = float(abs(mpmath.mpf(got) / want - 1))
            assert error <= energy.ROOTS_RTOL - s * 1.5e-16, n

    @pytest.mark.parametrize("s", [20.0, 40.0])
    def test_expansion_at_large_s(self, s):
        # the expansion takes no sines, only the rounding of pi
        for k in (16, 20):
            assert self.mp_roots_error(1 << k, s) <= energy.ROOTS_RTOL + s * 4e-17


class TestRootsExpansionRoute:
    """L(N) from its large-N expansion, from energy.EXPANSION_MIN_N on."""

    SWITCH = energy.EXPANSION_MIN_N.bit_length() - 1
    S = [-1.9, -1.5, -0.913, -0.413, -0.051, 0.049, 0.377, 0.951, 1.0, 1.5,
         2.0, 2.5, 2.999, 3.0, 3.001, 3.421, 3.999, 4.0, 5.0, 5.5, 7.25, 9.7]
    BAND = energy.POLE_BAND
    # both sides of the band edges around s = 1, and deep inside the bands
    # around 1, 3 and 5, where zeta(s - 2m) alone would hit its pole guard
    BAND_S = [1.0 - BAND - 1e-3, 1.0 - BAND + 1e-3, 1.0 + BAND - 1e-3,
              1.0 + BAND + 1e-3, 0.999, 1.001, 1.0 - 1e-13, 1.0 + 1e-9,
              3.0 + 1e-12, 5.0 - 1e-10]

    @staticmethod
    def gap(n, s):
        got = energy._roots_energy_cached(n, s)
        want = energy._roots_direct(n, s)
        return abs(got - want) / want

    @pytest.mark.parametrize("s", S + BAND_S)
    def test_agrees_with_direct_sum(self, s):
        # at the switch and at 2^{switch+1} .. 2^22
        for k in range(self.SWITCH, 23):
            assert self.gap(1 << k, s) <= energy.ROOTS_RTOL, k

    @pytest.mark.parametrize("s", [-1.5, 0.377, 0.97, 1.0, 3.421])
    def test_other_n(self, s):
        for n in (3 ** 11, 100003, (1 << 18) + 1):
            assert self.gap(n, s) <= energy.ROOTS_RTOL, n

    @pytest.mark.parametrize("s", S)
    def test_direct_below_the_switch(self, s):
        n = (1 << self.SWITCH) - 2
        for m in (n, 1 << (self.SWITCH - 1)):
            assert energy._roots_energy_cached(m, s) == energy._roots_direct(m, s)

    def test_band_is_needed(self):
        # without the band, I_s N^2 and the zeta(s) N^{1+s} term cancel
        s, n = 0.999, 1 << self.SWITCH
        top = math.floor((s + 1.0) / 2.0) + 1
        plain = energy._roots_expanded(n, s, roots_expansion(s, top))
        want = energy._roots_direct(n, s)
        assert abs(plain - want) / want > 10 * energy.ROOTS_RTOL
        assert self.gap(n, s) <= energy.ROOTS_RTOL

    @pytest.mark.parametrize("s", BAND_S)
    def test_band_membership(self, s):
        m = round((s - 1.0) / 2.0)
        inside = abs(s - (2 * m + 1)) < self.BAND
        top = math.floor((s + 1.0) / 2.0) + 1
        assert (roots_expansion(s, top, self.BAND).pole == m) == inside

    @pytest.mark.parametrize("k, s", [(16, 70.0), (17, 65.0), (20, 54.0)])
    def test_finite_where_n_to_the_s_overflows(self, k, s):
        # n^s overflows, c_0 ~ (2 pi)^-s brings the energy back in range.
        # The bound (6.3e-15 to 7.6e-15 here) does not cover the routes'
        # stated losses, ROOTS_RTOL plus s * 4e-17 (expansion) and up to
        # s * 1.5e-16 (direct sum); it covers the measured gaps, 2.0e-15,
        # 4.1e-15 and 3.9e-15 at the three points, with room
        assert k * s > 1024  # n^s = 2^{ks} is beyond the float range
        assert self.gap(1 << k, s) <= energy.ROOTS_RTOL + 2 * s * 4e-17
        assert math.isfinite(roots_energy(1 << 40, 26.0))

    @settings(max_examples=300, deadline=None)
    @given(s=st.floats(-1024.0 / 52.0, 1023.0, exclude_min=True, exclude_max=True),
           k=st.integers(0, 1100))
    def test_split_as_the_fraction_form(self, s, k):
        # k s = e + f from the integers of s, bit for bit as through Fraction
        assert energy._split(s, k) == oracles.split(s, k)
        assert 0.0 <= energy._split(s, k)[1] <= 1.0  # the rest, rounded once

    def test_beyond_float_range_is_inf(self):
        for n, s in ((1 << 2000, 0.5), (1 << 600, 1.01), (1 << 600, 3.0),
                     (1 << 40, 100.0), (3 ** 700, -1.5)):
            assert roots_energy(n, s) == math.inf

    @staticmethod
    def unscaled(n, s):
        """The direct sum with 2^-s applied after it, the route taken
        wherever it is finite."""
        half = np.arange(1, (n + 1) // 2)
        total = 2.0 * float(np.sum(np.sin(np.pi * half / n) ** (-s)))
        if n % 2 == 0:
            total += 1.0
        return 2.0 ** (-s) * n * total

    def test_direct_sum_scaled_where_its_powers_overflow(self):
        # sin(pi/n)^-80 overflows at n = 2^15, L(2^15) = 1.6e302 does not.
        # The bound, 8.4e-15, does not cover the routes' stated losses,
        # ROOTS_RTOL plus s * 4e-17 and up to s * 1.5e-16 (1.7e-14 in all);
        # it covers the measured gap, 2.05e-15, with room
        s, n = 80.0, 1 << 15
        top = math.floor((s + 1.0) / 2.0) + 1
        want = energy._roots_expanded(n, s, roots_expansion(s, top, self.BAND))
        got = energy._roots_direct(n, s)
        assert abs(got - want) / want <= energy.ROOTS_RTOL + 2 * s * 4e-17
        assert 1e302 < got < 2e302
        # where the powers stay finite the sum is unchanged, bit for bit
        for n, s in ((1 << 14, 80.0), (1 << 14, 79.9), (3001, 40.3),
                     ((1 << 16) - 2, 0.5), (1 << 12, -1.5)):
            assert energy._roots_direct(n, s) == self.unscaled(n, s)
        # and beyond the float range the scaled sum is inf, without warnings
        assert energy._roots_direct(1 << 15, 100.0) == math.inf
        assert energy._roots_direct(1 << 13, 1100.0) == math.inf

    def test_direct_sum_size_cap(self):
        # outside -2 < s < 127 only the direct sum applies, up to 2^24
        for s in (-2.5, 130.0):
            with pytest.raises(ValueError, match="2\\^24"):
                roots_energy((1 << 24) + 2, s)
        want = energy._roots_direct(1 << 16, -2.5)
        assert roots_energy(1 << 16, -2.5) == want


def test_bounded_memory_at_large_n(tmp_path):
    # under a 2 GiB address-space limit, so a size-dependent allocation
    # fails here instead of exhausting the machine
    code = textwrap.dedent("""
        import math, resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        from rieszgreedy.cli import main
        from rieszgreedy.energy import extremal_potential, greedy_energy
        n = (1 << 40) + 12345
        for s in (-1.5, 0.37, 0.99, 1.0, 3.421):
            assert math.isfinite(greedy_energy(n, s))
            assert math.isfinite(extremal_potential(n, s))
        sys.exit(main(sys.argv[1:]))
    """)
    src = str(Path(rieszgreedy.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "e.csv"

    def run(*argv):
        return subprocess.run([sys.executable, "-c", code, *argv, "--out",
                               str(out)], env=env, capture_output=True,
                              text=True, timeout=120)

    done = run("energy", "--N", str(1 << 40), "--s", "0.37")
    assert done.returncode == 0, done.stderr
    n, s, value = out.read_text().splitlines()[1].split(",")
    assert n == str(1 << 40) and math.isfinite(float(value))
    # s beyond the sinc table leaves only the direct sum: capped, exit 2
    done = run("energy", "--N", str(1 << 40), "--s", "200")
    assert done.returncode == 2, done.stderr


class TestGreedyEnergy:
    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 0.5, 2.0, 3.5])
    def test_powers_of_two_collapse(self, s):
        params = s
        for k in range(11):
            assert greedy_energy(1 << k, params) == roots_energy(1 << k, params)

    @pytest.mark.parametrize("s", [-0.5, 0.5, 1.0, 3.5])
    def test_three_points(self, s):
        params = s
        assert greedy_energy(3, params) == pytest.approx(
            0.5 * roots_energy(4, params), rel=1e-14)

    def test_three_points_inverse_square(self):
        # explicit configuration {1, -1, i}: pairs at distance 2, sqrt2, sqrt2
        assert greedy_energy(3, 2.0) == pytest.approx(
            2 * (1 / 4 + 1 / 2 + 1 / 2), rel=1e-15)

    def test_log_energy_offset_identity(self):
        for n in range(3, 65):
            want = -n * math.log(n) + n * leja_offset(binary_weights(n))
            assert greedy_energy(n, 0.0) == pytest.approx(
                want, abs=1e-11)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_monotone_growth(self, s):
        params = s
        prev = greedy_energy(2, params)
        for n in range(3, 1025):
            cur = greedy_energy(n, params)
            assert cur > prev
            prev = cur

    def test_log_kernel_beyond_the_float_range(self):
        # L(N) = -N log N at s = 0 is -inf from N = 2^1024 on, as at 2^1023
        for n in (1 << 1023, 1 << 1030, (1 << 1030) + 12345):
            assert greedy_energy(n, 0.0) == -math.inf

    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 2.5])
    def test_bits_far_apart_beyond_the_float_range(self, s):
        # S_e / 2^e = 2^-1100 underflows to 0.0 against D(2^1100) = +-inf:
        # the term is dropped, not taken as a nan
        want = -math.inf if s == 0.0 else math.inf
        for n in ((1 << 1100) + 1, (1 << 1100) + (1 << 30)):
            assert greedy_energy(n, s) == want, n

    def test_domain(self):
        with pytest.raises(ValueError):
            greedy_energy(8, -2.0)
        with pytest.raises(ValueError):
            greedy_energy(0, 1.0)
        assert greedy_energy(1, 1.0) == 0.0

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(ValueError, match="not finite"):
            greedy_energy(8, s)


#: Each public function of ``energy`` at one s; the first five are greedy.
S_CALLS = {
    "greedy_energy": lambda s: greedy_energy(5, s),
    "greedy_energies": lambda s: greedy_energies([3, 5], s),
    "extremal_potential": lambda s: extremal_potential(5, s),
    "extremal_potentials": lambda s: extremal_potentials([3, 5], s),
    "greedy_oracle": lambda s: greedy_oracle(4, s, grid_bits=8)[1],
    "roots_energy": lambda s: roots_energy(5, s),
    "prefix_energies": lambda s: prefix_energies(CircleConfig((0.0, 1.0, 2.5)), s),
}


@pytest.mark.parametrize("name", S_CALLS)
def test_s_is_a_plain_float(name):
    call = S_CALLS[name]
    assert np.all(np.isfinite(call(0.5)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            call(bad)
    for s in (-2.0, -2.5):
        if name in list(S_CALLS)[:5]:
            with pytest.raises(ValueError,
                               match=f"s = {s} <= -2 is outside the greedy regime"):
                call(s)
        else:
            assert np.all(np.isfinite(call(s)))


class TestGreedyEnergies:
    NS = list(range(1, 4097)) + list(range((1 << 16) - 512, (1 << 16) + 1))

    @pytest.mark.parametrize("s", [-1.5, -1.0, -0.5, 0.0, 1.0 / 3.0, 1.0, 2.0, 3.5])
    def test_bit_identical_to_scalar(self, s):
        params = s
        want = [greedy_energy(n, params) for n in self.NS]
        assert bits(greedy_energies(np.array(self.NS), params)) == bits(want)

    @pytest.mark.parametrize("s", [-0.5, 0.0, 2.0])
    def test_potentials_bit_identical_to_scalar(self, s):
        params = s
        ns = list(range(1, 600)) + [(1 << 16) - 3, (1 << 16) - 1]
        want = [extremal_potential(n, params) for n in ns]
        assert bits(extremal_potentials(np.array(ns), params)) == bits(want)

    @pytest.mark.parametrize("top", [1 << 16, (1 << 16) - 7])
    def test_requests_the_scalar_roots_energies(self, top):
        # a window just below a power of two, like the large-n benchmark:
        # both routes must ask for the same L(2^k), no more (each miss is
        # 2^{k-1} sines) and no fewer
        ns = np.arange(top - 255, top + 1)
        params = 0.37
        cache = energy._roots_energy_cached

        def misses(route_a, route_b):
            cache.cache_clear()
            route_a()
            first = cache.cache_info().misses
            route_b()  # every argument of b already cached: no new miss
            return first, cache.cache_info().misses

        def scalar():
            return [greedy_energy(int(n), params) for n in ns]

        def batch():
            return greedy_energies(ns, params)

        batch_misses, after_scalar = misses(batch, scalar)
        scalar_misses, after_batch = misses(scalar, batch)
        cache.cache_clear()
        assert batch_misses == scalar_misses == after_scalar == after_batch

    @pytest.mark.parametrize("s", [-1.5, 0.37, 0.97, 1.0, 3.0, 3.421])
    def test_bit_identical_across_the_switch(self, s):
        top = energy.EXPANSION_MIN_N
        ns = (list(range(top - 300, top + 301))
              + list(range(2 * top - 100, 2 * top + 101))
              + [(1 << 40) + 12345, (1 << 52) + 7, (1 << 53) - 1])
        params = s
        want = [greedy_energy(n, params) for n in ns]
        assert bits(greedy_energies(np.array(ns), params)) == bits(want)

    @pytest.mark.parametrize("s", [79.9, 80.0])
    def test_beyond_the_float_range_is_inf_never_nan(self, s):
        # L(2^15) is finite, L(2^16) and L(2^17) are not: every E(n) from
        # n = 2^15 + 1 on is inf, including E(98304), whose L(2^16) weight
        # is zero, and E(65535), whose terms hold both +inf and -inf
        ns = (list(range(32700, 32900)) + list(range(65500, 65600))
              + list(range(98250, 98350)))
        params = s
        want = [greedy_energy(n, params) for n in ns]
        got = greedy_energies(np.array(ns), params)
        assert bits(got) == bits(want)
        assert np.isfinite(got[np.array(ns) <= 1 << 15]).all()
        assert (got[np.array(ns) > 1 << 15] == math.inf).all()

    def test_domain(self):
        assert greedy_energies([], 1.0).shape == (0,)
        assert bits(greedy_energies([1], 1.0)) == bits([0.0])
        for bad in ([0, 3], [3, 1 << 53]):
            with pytest.raises(ValueError):
                greedy_energies(bad, 1.0)
        with pytest.raises(ValueError):
            greedy_energies([8], -2.0)


class TestAgainstTheTwoColumnFormula:
    """The bit sums regroup the two-column formula of
    :func:`oracles.greedy_energy_columns`, so they round differently."""

    NS = (list(range(1, 5000))
          + [random.Random(n).randrange(1, 1 << 53) for n in range(2000)]
          + list(range((1 << 24) - 1024, 1 << 24)))

    @pytest.mark.parametrize("s", [-1.5, -1.0, -0.5, -0.1, 0.0, 1.0 / 3.0, 0.5,
                                   0.97, 1.0, 2.0, 2.5, 3.0, 3.5, 80.0])
    def test_within_4_ulp_inf_alike_never_nan(self, s):
        want = np.array([oracles.greedy_energy_columns(n, s) for n in self.NS])
        got = np.array([greedy_energy(n, s) for n in self.NS])
        assert bits(greedy_energies(self.NS, s)) == bits(got)
        assert not np.isnan(got).any()
        assert (np.isinf(got) == np.isinf(want)).all()
        finite = np.isfinite(want)
        ulps = np.array([math.ulp(w) for w in want[finite]])
        assert (np.abs(got[finite] - want[finite]) <= 4 * ulps).all()


class TestRequestOrder:
    """Roots energies are requested largest first, by every route: the
    direct sums of a cold cache come in non-increasing N."""

    WINDOW = range((1 << 16) - 128, 1 << 16)

    @staticmethod
    def requested(monkeypatch, route) -> list[int]:
        sizes = []
        direct = energy._roots_direct

        def record(n, s):
            sizes.append(n)
            return direct(n, s)

        monkeypatch.setattr(energy, "_roots_direct", record)
        energy._roots_energy_cached.cache_clear()
        route()
        energy._roots_energy_cached.cache_clear()
        return sizes

    # outside the pole band, where the anchor 2^12 is requested early
    @pytest.mark.parametrize("s", [-0.5, 0.5, 2.5])
    def test_largest_first(self, monkeypatch, s):
        params = s
        ns = np.array(self.WINDOW)
        routes = [lambda: greedy_energies(ns, params),
                  lambda: extremal_potentials(ns, params)]
        routes += [lambda n=n, f=f: f(n, params) for n in self.WINDOW
                   for f in (greedy_energy, extremal_potential)]
        for route in routes:
            sizes = self.requested(monkeypatch, route)
            assert sizes and sizes == sorted(sizes, reverse=True)


class TestTableRequests:
    """The walk asks its table for L(2^e) at the set bits e of n and for
    L(2^{e+1}), L(2^e) where D(2^e) is used: exactly these, largest first."""

    CASES = [[1 << 40], [(1 << 40) + 1], [(1 << 53) - 1],
             [(1 << 200) + 3 ** 50], [1 << k for k in range(20)]]

    @staticmethod
    def expected(ns, potential: bool) -> set[int]:
        union = lows = 0
        for n in ns:
            union |= n
            lows |= n & (n - 1)
        doubled = union if potential else lows
        return ({1 << e for e in range(union.bit_length()) if union >> e & 1}
                | {m << e for e in range(doubled.bit_length()) if doubled >> e & 1
                   for m in (1, 2)})

    @pytest.mark.parametrize("potential", [False, True])
    @pytest.mark.parametrize("ns", CASES)
    def test_exactly_the_bits_requested(self, ns, potential):
        requested = []

        def table(m, s):
            requested.append(m)
            return float(m.bit_length())

        calls = [([n], lambda n=n: energy.bit_sum(n, 0.5, table, potential))
                 for n in ns]
        if max(ns) < 1 << 53:
            calls.append((ns, lambda: energy.bit_sums(np.array(ns), 0.5, table,
                                                      potential)))
        for covered, call in calls:
            requested.clear()
            call()
            assert set(requested) == self.expected(covered, potential)
            assert requested == sorted(requested, reverse=True)


def fsum_loop(ns, first, doubling, potential: bool) -> list[float]:
    """The bit sum of each n as math.fsum over its terms, top bit first."""
    sums = []
    for n in ns:
        terms = []
        for e in reversed(range(int(n).bit_length())):
            if n >> e & 1:
                terms.append(first[e])
                ratio = (n & ((1 << e) - 1)) / (1 << e)
                if not potential and ratio:
                    terms.append(ratio * doubling[e])
        sums.append(math.fsum(terms))
    return sums


@st.composite
def bit_tables(draw):
    """first/doubling tables of a drawn width: mixed signs, magnitudes from
    1e-300 to 1e300, subnormals, zeros and infs, and entries an anchor's
    half ulp apart (2^-52 to 2^-54, 2^-105 or 2^-106 times it, or a neighbour)
    that make sums land on or next to a rounding tie."""
    width = draw(st.integers(1, 53))
    anchor = draw(st.floats(1e-280, 1e280))
    sign = st.sampled_from([1.0, -1.0])
    entry = st.one_of(
        st.builds(operator.mul, sign, st.floats(1e-300, 1e300)),
        st.builds(operator.mul, sign, st.floats(5e-324, 2.2250738585072014e-308)),
        st.sampled_from([0.0, math.inf, -math.inf, anchor, -anchor]),
        st.builds(lambda k, s, m: s * math.ldexp(anchor * m, k),
                  st.sampled_from([-52, -53, -54, -105, -106]), sign,
                  st.sampled_from([1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53])))
    tables = st.lists(entry, min_size=width, max_size=width)
    ns = st.lists(st.integers(1, (1 << width) - 1), min_size=1, max_size=200)
    return draw(tables), draw(tables), np.array(draw(ns), np.int64)


class TestCertifiedSums:
    """The numpy kernel of bit_sums returns what math.fsum returns, bit for
    bit, certifying a row only where its rounding is settled and leaving
    the rest to the exact loop."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=bit_tables(), potential=st.booleans(),
           block=st.sampled_from([1, 3, 64, energy._BLOCK]))
    def test_bit_identical_to_fsum(self, drawn, potential, block):
        # the kernel on blocks of every size, and its certified rows alone
        first, doubling, ns = drawn
        values, certified = energy._certified(ns, first, doubling, potential)
        kernel = mock.patch.object(energy, "_BLOCK", block)
        try:
            want = fsum_loop(ns.tolist(), first, doubling, potential)
        except (ValueError, OverflowError) as err:  # -inf + inf, or overflow
            with kernel, pytest.raises(type(err)):
                energy._sums(ns, first, doubling, potential)
            want = [fsum_loop([n], first, doubling, potential)[0] if ok else math.nan
                    for n, ok in zip(ns.tolist(), certified)]  # a row alone
        else:
            with kernel:
                assert bits(energy._sums(ns, first, doubling, potential)) == bits(want)
        assert bits(values[certified]) == bits(np.array(want)[certified])

    def test_ties_and_zero_take_the_exact_loop(self):
        # 1 + 2^-53 is halfway between 1.0 and its successor: fsum rounds to
        # even, 1.0; one more 2^-106 tips it up to 1 + 2^-52, where hi + lo
        # still rounds to 1.0.  1 + 2^-106 is settled, and 1 - 1 is zero.
        first = [2.0 ** -106, 2.0 ** -53, 1.0, -1.0]
        ns = np.array([6, 7, 4, 5, 12])
        values, certified = energy._certified(ns, first, [0.0] * 4, True)
        assert certified.tolist() == [False, False, True, True, False]
        assert values[1] == 1.0
        want = fsum_loop(ns.tolist(), first, [0.0] * 4, True)
        assert want[:2] == [1.0, 1.0 + 2.0 ** -52]
        assert bits(energy._sums(ns, first, [0.0] * 4, True)) == bits(want)

    def test_the_error_of_lo_counts(self):
        # 1.5, -2^-106, 2^-53 leave hi = 1.5, lo = 2^-53 - 2^-106, just
        # short of the tie; lo then drops five 2^-108, so the sum is past the
        # tie and rounds up.  Only the Sum2 bound B keeps 1.5 uncertified.
        first = [2.0 ** -108] * 5 + [2.0 ** -53, -(2.0 ** -106), 1.5]
        values, certified = energy._certified(np.array([255]), first, [0.0] * 8, True)
        assert values[0] == 1.5 and not certified[0]
        assert energy._sums(np.array([255]), first, [0.0] * 8, True)[0] == 1.5 + 2.0 ** -52

    def test_the_gap_below_a_power_of_two(self):
        # 1 - 2^-54 - 2^-108 rounds to 1 - 2^-53, but lo drops the 2^-108 and
        # hi + lo is the tie 1 - 2^-54, which rounds to 1.0: the gap below
        # 1.0, half the one above, leaves no room for the certificate
        first = [-(2.0 ** -108), -(2.0 ** -54), 1.0]
        values, certified = energy._certified(np.array([7]), first, [0.0] * 3, True)
        assert values[0] == 1.0 and not certified[0]
        assert energy._sums(np.array([7]), first, [0.0] * 3, True)[0] == 1.0 - 2.0 ** -53

    def test_near_overflow_takes_the_exact_loop(self):
        # terms max, 2^969, 2^969, -3 2^968: their sum rounds to max, but
        # fsum's partials reach max + 2^970 on the way, which overflows;
        # sum |t| also rounds to max, past the certificate's 2^1020
        first = [-3 * 2.0 ** 968, 2.0 ** 969, 2.0 ** 969, sys.float_info.max]
        with pytest.raises(OverflowError):
            fsum_loop([15], first, [0.0] * 4, True)
        values, certified = energy._certified(np.array([15]), first, [0.0] * 4, True)
        assert values[0] == sys.float_info.max and not certified[0]
        with pytest.raises(OverflowError):
            energy._sums(np.array([15]), first, [0.0] * 4, True)

    @pytest.mark.parametrize("potential", [False, True])
    def test_the_exact_loop_requests_no_table(self, potential):
        # a nan table leaves every row to the exact loop, which sums over
        # the lists already read: the requests are those of a finite table
        def requests(value):
            requested = []

            def table(m, s):
                requested.append(m)
                return value(m)

            return requested, energy.bit_sums(np.arange(1, 64), 0.5, table, potential)

        fallback, sums = requests(lambda m: math.nan)
        assert np.isnan(sums).all()
        assert fallback == requests(lambda m: float(m.bit_length()))[0]

    def test_overflow_names_the_first_n_in_a_later_block(self, monkeypatch):
        # at s = 80, U_n is beyond the float range from n = 2^15 on
        monkeypatch.setattr(energy, "_BLOCK", 4)
        ns = np.arange((1 << 15) - 9, (1 << 15) + 3)
        with pytest.raises(OverflowError, match=re.escape(f"n = {1 << 15}, s = 80.0")):
            extremal_potentials(ns, 80.0)


class TestGreedyOracle:
    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 2.0])
    def test_matches_closed_form_small(self, s):
        params = s
        config, energy = greedy_oracle(16, params, grid_bits=14)
        pe = prefix_energies(config, params)
        assert energy == pytest.approx(pe[-1], rel=1e-12)
        for n in range(2, 17):
            formula = greedy_energy(n, params)
            assert pe[n - 1] == pytest.approx(formula, rel=1e-9, abs=1e-9)

    def test_second_point_is_antipodal(self):
        for s in (-1.0, 0.5, 2.0):
            config, energy = greedy_oracle(2, s, grid_bits=14)
            assert config.angles[0] == 0.0
            assert config.angles[1] == pytest.approx(math.pi, abs=1e-10)
            assert energy == pytest.approx(2.0 * 2.0 ** (-s), rel=1e-12)
        config, energy = greedy_oracle(2, 0.0, grid_bits=14)
        assert energy == pytest.approx(-2.0 * math.log(2.0), rel=1e-12)

    def test_first_four_points_equally_spaced(self):
        config, energy = greedy_oracle(4, 1.0, grid_bits=16)
        got = np.sort(np.asarray(config.angles))
        want = np.array([0.0, 0.5, 1.0, 1.5]) * math.pi
        assert np.max(np.abs(got - want)) < 1e-9
        assert energy == pytest.approx(roots_energy(4, 1.0),
                                       rel=1e-10)

    def test_validations(self):
        with pytest.raises(ValueError):
            greedy_oracle(1, 1.0)
        with pytest.raises(ValueError):
            greedy_oracle(100, 1.0, grid_bits=8)
        with pytest.raises(ValueError):
            greedy_oracle(8, -2.5)


class TestExtremalPotential:
    @pytest.mark.parametrize("s", [-1.5, -0.5, 0.5, 2.0])
    def test_first_value(self, s):
        assert extremal_potential(1, s) == pytest.approx(
            2.0 ** (-s), rel=1e-14)

    @pytest.mark.parametrize("s", [-0.5, 0.5, 2.0])
    def test_second_value(self, s):
        params = s
        want = 0.5 * (0.5 * roots_energy(4, params) - roots_energy(2, params))
        assert extremal_potential(2, params) == pytest.approx(want, rel=1e-13)

    def test_log_band(self):
        # -U/log(N+1) stays inside a fixed band over the whole desk range
        params = 0.0
        for n in range(1, 4097):
            f = -extremal_potential(n, params) / math.log(n + 1.0)
            assert 0.0 <= f <= 1.01

    @pytest.mark.parametrize("s, last", [(80.0, 1 << 15), (1e308, 4)])
    def test_undetermined_beyond_the_float_range(self, s, last):
        # E(last + 1) is the first energy beyond the float range (inf), so
        # U_last = (E(last + 1) - E(last)) / 2 is not known: OverflowError
        params = s
        assert math.isfinite(greedy_energy(last, params))
        assert greedy_energy(last + 1, params) == math.inf
        ns = list(range(max(1, last - 3), last))
        want = [extremal_potential(n, params) for n in ns]
        assert np.isfinite(want).all()
        assert bits(extremal_potentials(ns, params)) == bits(want)
        message = re.escape(f"n = {last}, s = {s}")
        with pytest.raises(OverflowError, match=message):
            extremal_potential(last, params)
        with pytest.raises(OverflowError, match=message):
            extremal_potentials(ns + [last, last + 1], params)


    def test_log_kernel_beyond_the_float_range(self):
        # U_n needs L(2^1031) = -inf: the documented error, naming n and s
        n = 1 << 1030
        with pytest.raises(OverflowError, match=re.escape(f"n = {n}, s = 0.0")):
            extremal_potential(n, 0.0)


class TestPotentialAccuracy:
    """U_n is a bit sum of midpoint potentials, with no energies
    differenced."""

    def test_log_kernel_is_popcount_log_2(self):
        # at s = 0, V(M) = -log 2 for every M
        rng = random.Random(7)
        for n in [rng.randrange(1, 1 << 200) for _ in range(300)]:
            want = -n.bit_count() * math.log(2.0)
            got = extremal_potential(n, 0.0)
            assert abs(got - want) <= 1e-14 * abs(want), n

    def test_f_at_minus_half_in_the_2_to_20_octave(self):
        # the difference of two energies was 4.1e-4 off here
        rng = random.Random(20)
        ns = [rng.randrange(1 << 20, 1 << 21) for _ in range(16)]
        got = f_from_potentials(ns, extremal_potentials(ns, -0.5), -0.5)
        for n, f in zip(ns, got):
            assert abs(f - oracles.f_reference(n, -0.5)) <= 1e-8, n


class TestCircleConfig:
    def test_rejects_coincident(self):
        with pytest.raises(ValueError):
            CircleConfig((0.0, 1.0, 0.0))

    def test_config_energy_against_reference(self):
        rng = np.random.default_rng(5)
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=40))
        config = CircleConfig(tuple(angles))
        for s in (-0.5, 0.0, 0.5, 2.0):
            assert prefix_energies(config, s)[-1] == pytest.approx(
                pairwise_energy_reference(angles, s), rel=1e-12)
