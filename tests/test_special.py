import math
import random

import mpmath
import pytest

import oracles
from rieszgreedy import special
from rieszgreedy.special import (EULER_GAMMA, arclength_energy, digamma,
                                 log_term_constant, regularized_zeta,
                                 roots_expansion, sinc_coeff_derivative,
                                 sinc_power_series, zeta)

mpmath.mp.dps = 30


class TestZeta:
    def test_classical_values(self):
        assert zeta(-1.0) == pytest.approx(-1.0 / 12.0, abs=1e-16)
        assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)
        assert zeta(0.0) == -0.5
        assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-15)

    def test_pole_and_range(self):
        with pytest.raises(ValueError):
            zeta(1.0)
        with pytest.raises(ValueError):
            zeta(1.0 + 1e-12)
        with pytest.raises(ValueError):
            zeta(201.0)

    def test_trivial_zeros(self):
        for s in (-2.0, -4.0, -6.0, -40.0):
            assert zeta(s) == 0.0

    def test_bernoulli_numbers_as_the_table(self):
        # each computed only as far as asked, in a fresh cache
        special._bernoulli_numbers.cache_clear()
        assert special._bernoulli(4) == oracles.bernoulli_table()[4]
        assert special._bernoulli_numbers.cache_info().currsize == 5
        assert special._bernoulli_numbers(201) == oracles.bernoulli_table()

    def test_negative_odd_integers(self):
        # zeta(-n) = -B_{n+1} / (n + 1), exactly rounded
        table = oracles.bernoulli_table()
        for n in range(1, 200, 2):
            assert zeta(float(-n)) == float(-table[n + 1] / (n + 1)), n

    @pytest.mark.parametrize("s", [2.0, 3.5, 6.0])
    def test_functional_equation_self_consistency(self, s):
        rhs = (2.0 * (2.0 * math.pi) ** (-s) * math.cos(math.pi * s / 2.0)
               * math.gamma(s) * zeta(s))
        assert abs(zeta(1.0 - s) - rhs) <= 1e-11

    def test_against_mpmath_grid(self):
        pts = [k / 7.0 for k in range(-1393, 1394)] + [-199.5, 199.5, 0.001]
        for s in pts:
            if abs(s - 1.0) < 1e-6 or abs(s) > 200:
                continue
            want = float(mpmath.zeta(s))
            if want == 0.0:
                assert zeta(s) == 0.0
            else:
                assert zeta(s) == pytest.approx(want, rel=1e-13), s


class TestDigamma:
    def test_classical_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2),
                                             abs=1e-14)
        # recurrence psi(x+1) = psi(x) + 1/x
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-14)

    def test_against_mpmath(self):
        for x in (0.01, 0.07, 0.5, 1.0, 2.5, 3.7, 9.99, 10.01, 55.5, 400.0):
            assert digamma(x) == pytest.approx(float(mpmath.psi(0, x)),
                                               abs=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)


class TestArclengthEnergy:
    def test_closed_forms(self):
        assert arclength_energy(-1.0) == pytest.approx(4.0 / math.pi, rel=1e-15)
        for s in (2.0, 4.0, 6.0):
            assert arclength_energy(s) == 0.0

    def test_poles(self):
        for s in (1.0, 3.0, 5.0):
            with pytest.raises(ValueError):
                arclength_energy(s)

    def test_half_against_quadrature(self):
        # frozen from the rotation-reduced pair integral
        #   (1/pi) * int_0^pi (2 sin(t/2))^(-1/2) dt  (scipy.integrate.quad)
        assert arclength_energy(0.5) == pytest.approx(1.180340599016096,
                                                      abs=5e-9)
        from scipy.integrate import quad
        s = 0.5
        live, err = quad(lambda t: (2 * math.sin(t / 2)) ** (-s) / math.pi,
                         0.0, math.pi, points=[0.0], limit=200)
        assert arclength_energy(s) == pytest.approx(live, abs=max(1e-8, 10 * err))

    def test_sign_pattern(self):
        for s in (-1.9, -1.0, -0.3, 0.4, 0.9):
            assert arclength_energy(s) > 0.0
        for s in (1.2, 1.7):
            assert arclength_energy(s) < 0.0

    def test_large_negative_s_against_mpmath(self):
        # 2^-s Gamma((1-s)/2) overflows below s = -268.25 and Gamma((1-s)/2)
        # alone below -341.25; the value is finite down to about -1029.3
        rng = random.Random(12)
        for s in [-268.4, -300.0, -341.6, -400.0, -1000.0, -1023.0, -1029.3,
                  *(rng.uniform(-1029.3, -268.4) for _ in range(40))]:
            x = mpmath.mpf(s)
            want = (mpmath.power(2, -x) * mpmath.gamma((1 - x) / 2)
                    / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - x / 2)))
            assert abs(arclength_energy(s) - want) <= 5e-15 * want, s

    def test_large_positive_s_against_mpmath(self):
        # above s = 171 both Gammas head for underflow (the product
        # 2^-s Gamma((1-s)/2) is 0.0 at s = 300.5, both Gammas near 400);
        # the value is subnormal from about s = 1018 and 0.0 beyond 1075,
        # unless s is close to an odd integer
        rng = random.Random(13)
        for s in [171.3, 299.5, 300.5, 301.0000001, 400.2, 1021.00000000001,
                  1023.5, 1060.5, 1074.3, 100000.5,
                  *(rng.uniform(171.0, 1100.0) for _ in range(40)),
                  *(rng.uniform(1100.0, 1e5) for _ in range(10))]:
            x = mpmath.mpf(s)
            want = (mpmath.power(2, -x) * mpmath.gamma((1 - x) / 2)
                    / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1 - x / 2)))
            got = arclength_energy(s)
            assert abs(got - want) <= 5e-15 * abs(want) + 2.0 ** -1074, s
            assert math.copysign(1.0, got) == mpmath.sign(want), s

    def test_large_positive_s_values(self):
        for s, want in ((400.2, 4.37164201541216e-123), (300.5, 1.59906248842105e-92),
                        (1023.5, -1.96246380993785e-310)):  # subnormal
            assert arclength_energy(s) == pytest.approx(want, rel=1e-13), s
        assert arclength_energy(299.5) < 0.0
        # the value underflows: 0.0, with the sign of tan(pi s/2)
        assert math.copysign(1.0, arclength_energy(100000.5)) == 1.0
        assert math.copysign(1.0, arclength_energy(100001.5)) == -1.0
        assert arclength_energy(100000.5) == 0.0

    @pytest.mark.parametrize("s", [-1029.4, -1030.0, -1e6])
    def test_beyond_the_float_range(self, s):
        with pytest.raises(OverflowError, match=f"at s = {s} is beyond"):
            arclength_energy(s)


class TestSincPowerSeries:
    def test_leading_coefficient(self):
        for s in (-1.0, 0.5, 2.0, 7.0):
            assert sinc_power_series(s, 5).coeffs[0] == 1.0

    def test_first_coefficient(self):
        # first-order term of exp(s zeta(2) z^2 + ...) is s pi^2/6
        assert sinc_power_series(2.0, 2).coeffs[1] == pytest.approx(
            math.pi ** 2 / 3.0, rel=1e-14)
        for s in (-1.0, 0.5, 3.0):
            assert sinc_power_series(s, 2).coeffs[1] == pytest.approx(
                s * math.pi ** 2 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("s", [-1.0, 0.5, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("z", [0.1, 0.2])
    def test_partial_sums_track_the_function(self, s, z):
        terms = 7
        table = sinc_power_series(s, terms + 1)
        partial = sum(table.coeffs[j] * z ** (2 * j) for j in range(terms))
        direct = (math.sin(math.pi * z) / (math.pi * z)) ** (-s)
        omitted = abs(table.coeffs[terms]) * z ** (2 * terms)
        assert abs(partial - direct) <= 2.0 * omitted

    def test_against_mpmath_exp_recurrence(self):
        # independent high-precision rebuild of the same coefficients
        for s in (0.5, 5.0):
            got = sinc_power_series(s, 9).coeffs
            a = [mpmath.mpf(0)] + [s * mpmath.zeta(2 * k) / k
                                   for k in range(1, 9)]
            b = [mpmath.mpf(1)] + [mpmath.mpf(0)] * 8
            for n in range(1, 9):
                b[n] = sum(k * a[k] * b[n - k] for k in range(1, n + 1)) / n
            for mine, ref in zip(got, b):
                assert mine == pytest.approx(float(ref), rel=1e-12)

    def test_evaluate(self):
        table = sinc_power_series(2.0, 20)
        z = 0.05
        assert table(z) == pytest.approx(
            (math.sin(math.pi * z) / (math.pi * z)) ** (-2.0), rel=1e-13)

    def test_degree_limit(self):
        with pytest.raises(ValueError):
            sinc_power_series(1.0, 0)
        with pytest.raises(ValueError):
            sinc_power_series(1.0, 66)


class TestCoeffDerivative:
    def test_empty_sum(self):
        assert sinc_coeff_derivative(0) == 0.0

    def test_one_term(self):
        assert sinc_coeff_derivative(1) == pytest.approx(math.pi ** 2 / 6.0,
                                                         rel=1e-13)

    def test_two_terms_frozen(self):
        # frozen: central difference of the degree-2 coefficient at s = 5
        # with mpmath (d beta_2/ds = 14.07020203824480)
        assert sinc_coeff_derivative(2) == pytest.approx(14.07020203824480,
                                                         rel=1e-12)

    def test_against_central_difference(self):
        h = 1e-6
        for m in (1, 2, 3):
            s = 2.0 * m + 1.0
            hi = sinc_power_series(s + h, m + 1).coeffs[m]
            lo = sinc_power_series(s - h, m + 1).coeffs[m]
            assert sinc_coeff_derivative(m) == pytest.approx(
                (hi - lo) / (2 * h), rel=1e-7)


class TestLogTermConstant:
    def test_m0_is_log2(self):
        assert log_term_constant(0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_m1_closed_form(self):
        # (pi^2/6)/beta_1(3) + psi(2)/2 - psi(3/2)/2 collapses to log2 - 1/6
        assert log_term_constant(1) == pytest.approx(math.log(2.0) - 1.0 / 6.0,
                                                     abs=1e-14)

    def test_m2_two_backends(self):
        # frozen from the mpmath backend; both evaluations agree to 1e-12
        frozen = 0.494999032411797
        assert log_term_constant(2) == pytest.approx(frozen, abs=1e-12)

        def beta_mp(s, j_max):
            a = [mpmath.mpf(0)] + [s * mpmath.zeta(2 * k) / k
                                   for k in range(1, j_max + 1)]
            b = [mpmath.mpf(1)] + [mpmath.mpf(0)] * j_max
            for n in range(1, j_max + 1):
                b[n] = sum(k * a[k] * b[n - k] for k in range(1, n + 1)) / n
            return b

        m = 2
        s = 2 * m + 1
        b = beta_mp(s, m)
        bp = sum(b[k] * mpmath.zeta(2 * (m - k)) / (m - k) for k in range(m))
        ref = bp / b[m] + mpmath.psi(0, m + 1) / 2 - mpmath.psi(0, m + 0.5) / 2
        assert log_term_constant(2) == pytest.approx(float(ref), abs=1e-12)


class TestRegularizedZeta:
    def test_value_at_pole(self):
        assert regularized_zeta(1.0) == 1.0

    @pytest.mark.parametrize("s", [0.25, 0.9375, 1.0 - 1e-13, 1.0 + 1e-9,
                                   1.0625, 2.0, 7.5])
    def test_against_mpmath(self, s):
        with mpmath.workdps(40):
            x = mpmath.mpf(s)
            ref = float((x - 1) * mpmath.zeta(x))
        assert regularized_zeta(s) == pytest.approx(ref, rel=4e-16)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 201.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            regularized_zeta(bad)


class TestRootsExpansion:
    def test_generic_coefficients(self):
        s = 3.421
        ex = roots_expansion(s, 3)
        b = sinc_power_series(s, 4).coeffs
        front = 2.0 / (2.0 * math.pi) ** s
        assert ex.pole is None and ex.log_factor == 0.0
        assert ex.arclength == arclength_energy(s)
        assert ex.coeffs == tuple(front * b[j] * zeta(s - 2.0 * j)
                                  for j in range(4))

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_odd_integer(self, m):
        s = 2.0 * m + 1.0
        ex = roots_expansion(s, m + 1)
        assert ex.pole == m and ex.coeffs[m] == 0.0 and ex.arclength == 0.0
        q = math.gamma(m + 0.5) / (math.sqrt(math.pi) * math.pi * 4.0 ** m
                                   * math.factorial(m))
        assert ex.log_factor == pytest.approx(q, rel=1e-15)
        assert ex.log_constant == pytest.approx(
            EULER_GAMMA - math.log(math.pi) + log_term_constant(m), rel=1e-15)

    @pytest.mark.parametrize("s", [0.95, 1.0 - 1e-6, 1.04, 2.97, 5.0 + 1e-7])
    def test_band_residue(self, s):
        # inside the band c_m is replaced by the finite (s - 2m - 1) c_m
        m = round((s - 1.0) / 2.0)
        eps = s - (2 * m + 1)
        banded = roots_expansion(s, m + 1, band=0.0625)
        plain = roots_expansion(s, m + 1)
        assert banded.pole == m and plain.pole is None
        assert banded.coeffs[m] == 0.0
        assert banded.residue == pytest.approx(eps * plain.coeffs[m], rel=1e-13)
        others = [j for j in range(m + 2) if j != m]
        assert [banded.coeffs[j] for j in others] == [plain.coeffs[j] for j in others]

    def test_band_edges(self):
        assert roots_expansion(1.0 - 0.0626, 2, band=0.0625).pole is None
        assert roots_expansion(1.0 - 0.0624, 2, band=0.0625).pole == 0
        assert roots_expansion(3.0624, 3, band=0.0625).pole == 1
        assert roots_expansion(-1.0, 0, band=0.0625).pole is None
