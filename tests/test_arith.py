import math
import random
from fractions import Fraction

import mpmath
import pytest

from oracles import (DyadicStructureError, dyadic_blocks,
                     energy_form_telescoped)
from rieszgreedy.arith import (energy_form, leja_offset, log_kernel_form,
                               log_moment, power_sum)
from rieszgreedy.binary import (WeightVector, binary_weights,
                                expand_reciprocal)

mpmath.mp.dps = 30

HALF_VECTOR = expand_reciprocal(Fraction(1, 2)).weights()  # (1/2, 1/4, ...)
ONE_VECTOR = binary_weights(1)  # (1, 0, 0, ...)


class TestEnergyForm:
    @pytest.mark.parametrize("n", [3, 7, 21, 100])
    def test_unity_at_zero_and_one(self, n):
        w = binary_weights(n)
        assert energy_form(w, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert energy_form(w, 1.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("s", [-0.5, 2.0, 3.5])
    def test_single_component_is_one(self, s):
        assert energy_form(ONE_VECTOR, s) == 1.0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_alternating_bits_closed_form(self, p):
        # for n = (4^p - 1)/3 the s = -1 value is 2p/3 + (4/9)(1 - 4^-p)
        n = (4 ** p - 1) // 3
        want = 2.0 * p / 3.0 + 4.0 / 9.0 * (1.0 - 4.0 ** (-p))
        assert energy_form(binary_weights(n), -1.0) == pytest.approx(
            want, abs=1e-13)

    def test_geometric_vector_is_one(self):
        for s in (-0.5, 0.7, 2.0, 3.5):
            assert energy_form(HALF_VECTOR, s) == pytest.approx(1.0, abs=1e-15)

    def test_infinite_tail_rejects_s_below_minus_one(self):
        with pytest.raises(ValueError):
            energy_form(HALF_VECTOR, -1.0)
        # finite vectors accept any real s
        assert energy_form(binary_weights(21), -1.5) > 0.0

    def test_truncated_vector_tolerance_guard(self):
        w = expand_reciprocal(Fraction(1, 2)).materialize(8).weights()
        with pytest.raises(ValueError):
            energy_form(w, -0.5, tol=1e-12)
        # a deeper materialization meets a modest tolerance
        w24 = expand_reciprocal(Fraction(1, 2)).materialize(24).weights()
        assert energy_form(w24, -0.5, tol=1e-2) == pytest.approx(1.0, abs=1e-2)


class TestLogKernelForm:
    def test_single_component(self):
        assert log_kernel_form(ONE_VECTOR) == pytest.approx(0.0, abs=1e-15)

    def test_geometric_vector(self):
        # closed-form geometric sums (sum k 4^-k = 4/9) make this vanish
        assert log_kernel_form(HALF_VECTOR) == pytest.approx(0.0, abs=1e-15)

    def test_two_component_frozen(self):
        # frozen 25-digit recomputation: 0.1336493656606819697909452
        w = WeightVector((Fraction(2, 3), Fraction(1, 3)))
        assert log_kernel_form(w) == pytest.approx(0.1336493656606820,
                                                   abs=1e-15)

    def test_bounded_on_integers(self):
        rng = random.Random(11)
        bound = 5 * math.log(4)
        for _ in range(300):
            n = rng.randint(1, 1 << 20)
            assert abs(log_kernel_form(binary_weights(n))) <= bound


class TestLejaOffset:
    def test_single_component(self):
        assert leja_offset(ONE_VECTOR) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("k", range(11))
    def test_powers_of_two(self, k):
        assert leja_offset(binary_weights(1 << k)) == pytest.approx(
            0.0, abs=1e-15)

    def test_three(self):
        want = math.log(3.0) - 4.0 / 3.0 * math.log(2.0)
        assert leja_offset(binary_weights(3)) == pytest.approx(want, abs=1e-15)

    def test_range_on_integers(self):
        rng = random.Random(12)
        hi = math.log(4.0 / 3.0)
        for _ in range(300):
            n = rng.randint(2, 1 << 20)
            v = leja_offset(binary_weights(n))
            assert -1e-15 <= v < hi


class TestPowerSum:
    @pytest.mark.parametrize("n", [5, 21, 100])
    def test_unity_at_one(self, n):
        assert power_sum(binary_weights(n), 1.0) == pytest.approx(1.0,
                                                                  abs=1e-15)

    def test_single_component(self):
        assert power_sum(ONE_VECTOR, 0.5) == 1.0

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_geometric_vector(self, s):
        assert power_sum(HALF_VECTOR, s) == pytest.approx(
            1.0 / (2.0 ** s - 1.0), rel=1e-14)

    def test_infinite_tail_needs_positive_s(self):
        with pytest.raises(ValueError):
            power_sum(HALF_VECTOR, -0.5)


class TestLogMoment:
    def test_endpoints(self):
        assert log_moment(ONE_VECTOR) == 0.0
        assert log_moment(HALF_VECTOR) == pytest.approx(-2.0 * math.log(2.0),
                                                        rel=1e-15)

    def test_five(self):
        want = 0.8 * math.log(0.8) + 0.2 * math.log(0.2)
        assert log_moment(binary_weights(5)) == pytest.approx(want, abs=1e-15)

    def test_bounds_on_integers(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(1, 1 << 20)
            v = log_moment(binary_weights(n))
            assert -2.0 * math.log(2.0) - 1e-14 <= v <= 1e-14

    def test_abs_log_sum_bound(self):
        # sum theta |log theta| <= log 4 on vectors from integers and from
        # reciprocal expansions alike
        rng = random.Random(14)
        vectors = [binary_weights(rng.randint(1, 1 << 20)) for _ in range(100)]
        vectors += [expand_reciprocal(Fraction(1 << 8, (1 << 8) + 2 * n + 1),
                                      prefer_finite=False).weights()
                    for n in range(0, 128, 17)]
        for w in vectors:
            total = sum(float(t) * abs(math.log(float(t)))
                        for t in w.components)
            if w.unit_tail is not None:
                c = float(w.unit_tail)
                total += 2.0 * c * (math.log(2.0) - math.log(c))
            assert total <= math.log(4.0) + 1e-12


class TestTwoExpansionConsistency:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_finite_vs_truncated_infinite(self, m):
        # the terminating expansion and a truncated materialization of the
        # infinite one agree to 1e-10 plus the truncation allowance
        for n in range(1 << (m - 1)):
            x = Fraction(1 << m, (1 << m) + 2 * n + 1)
            w_fin = expand_reciprocal(x).weights()
            w_trunc = expand_reciprocal(
                x, prefer_finite=False).materialize(48).weights()
            p = len(w_trunc)
            for s in (-0.5, 0.5, 2.0):
                slack = 1e-10 + (2.0 ** (s + 1) + 3.0) * 2.0 ** (-p * (s + 1)) \
                    / -math.expm1(-(s + 1) * math.log(2.0))
                assert abs(energy_form(w_fin, s)
                           - energy_form(w_trunc, s, tol=1.0)) <= slack
            assert abs(log_kernel_form(w_fin)
                       - log_kernel_form(w_trunc)) <= 1e-10
            assert abs(leja_offset(w_fin) - leja_offset(w_trunc)) <= 1e-10

    def test_exact_unit_tail_matches_finite_exactly(self):
        for x in (Fraction(2, 3), Fraction(8, 11), Fraction(16, 21)):
            w_fin = expand_reciprocal(x).weights()
            w_inf = expand_reciprocal(x, prefer_finite=False).weights()
            for s in (-0.5, 0.5, 2.0, 3.5):
                assert energy_form(w_fin, s) == pytest.approx(
                    energy_form(w_inf, s), abs=1e-14)
            assert log_kernel_form(w_fin) == pytest.approx(
                log_kernel_form(w_inf), abs=1e-14)
            assert leja_offset(w_fin) == pytest.approx(
                leja_offset(w_inf), abs=1e-14)


class TestConvexity:
    def test_second_differences_positive(self):
        rng = random.Random(15)
        grid = [-0.9 + 0.35 * k for k in range(15)]  # -0.9 .. 4.0
        count = 0
        while count < 50:
            n = rng.randint(3, 1 << 20)
            if n & (n - 1) == 0:
                continue  # powers of two give the constant vector
            count += 1
            w = binary_weights(n)
            values = [energy_form(w, s) for s in grid]
            for a, b, c in zip(values, values[1:], values[2:]):
                assert a - 2 * b + c > 0.0

    def test_convexity_bounds_all_small_integers(self):
        from rieszgreedy.limits import batch_eta_values
        import numpy as np
        ns = np.arange(2, (1 << 14) + 1)
        for s in (0.25, 0.5, 0.75):
            assert batch_eta_values(ns, "energy_form", s).max() <= 1.0 + 1e-12
        for s in (-0.9, -0.5, 1.5, 2.0, 3.5, 7.0):
            assert batch_eta_values(ns, "energy_form", s).min() >= 1.0 - 1e-12

    def test_boundedness_constants(self):
        rng = random.Random(16)
        for _ in range(300):
            n = rng.randint(1, 1 << 20)
            w = binary_weights(n)
            for s in (1.0, 2.0, 3.5):
                assert 0.0 < energy_form(w, s) < 2.0 ** (s + 1) - 1.0
            for s in (0.3, 0.7):
                assert energy_form(w, s) < (2.0 ** (s + 1) - 1.0) / (2.0 ** s - 1.0)
            for s in (-0.7, -0.3):
                assert energy_form(w, s) < 2.0 ** (s + 1) / (2.0 ** (s + 1) - 1.0)
            ratio = energy_form(w, -1.0) / math.log(n + 1)
            assert 0.0 < ratio <= 1.0 / math.log(2.0) + 1e-15


class TestPartition:
    def test_worked_example(self):
        n = 2 ** 13 + 2 ** 12 + 2 ** 10 + 2 ** 8 + 2 ** 7 + 2 ** 6 + 2 ** 3 + 2 + 1
        part = dyadic_blocks(binary_weights(n))
        assert part.blocks() == [(1, 2), (3,), (4, 5, 6), (7,), (8, 9)]
        assert part.infinite_start is None

    def test_single_component(self):
        part = dyadic_blocks(ONE_VECTOR)
        assert part.blocks() == [(1,)]

    def test_geometric_vector_single_infinite_block(self):
        part = dyadic_blocks(HALF_VECTOR)
        assert part.blocks() == []
        assert part.infinite_start == 1
        for s in (-0.5, 0.5, 2.0, 3.5):
            assert energy_form_telescoped(HALF_VECTOR, s) == pytest.approx(
                1.0, abs=1e-15)

    def test_block_end_inequality(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(2, 1 << 20)
            part = dyadic_blocks(binary_weights(n))
            for _, b_first, theta_last, b_last in part.endpoints:
                assert theta_last - 2 * b_last >= 0

    def test_between_block_gap(self):
        rng = random.Random(18)
        for _ in range(100):
            n = rng.randint(2, 1 << 18)
            w = binary_weights(n)
            part = dyadic_blocks(w)
            lead = w.components[0]
            for (a1, b1), (a2, _) in zip(part.spans, part.spans[1:]):
                # exponent jump >= 2 between consecutive blocks
                gap = (lead / w.components[a2 - 1]) / (lead / w.components[b1 - 1])
                assert gap >= 4

    def test_non_dyadic_ratio_rejected(self):
        w = WeightVector((Fraction(7, 10), Fraction(2, 10), Fraction(1, 10)))
        with pytest.raises(DyadicStructureError):
            dyadic_blocks(w)

    def test_truncated_vector_rejected(self):
        w = expand_reciprocal(Fraction(1, 2)).materialize(16).weights()
        with pytest.raises(ValueError):
            dyadic_blocks(w)

    def test_infinite_tail_after_gap(self):
        # x = 16/21: finite exponents (0, 2, 4); infinite twin has the tail
        # opening a block of its own after the gap
        w = expand_reciprocal(Fraction(16, 21), prefer_finite=False).weights()
        part = dyadic_blocks(w)
        assert part.infinite_start == len(w.components) + 1


class TestTelescoping:
    def test_matches_direct_on_random_integers(self):
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randint(2, 1 << 20)
            w = binary_weights(n)
            for s in (-0.5, 0.5, 2.0, 3.5):
                assert abs(energy_form(w, s)
                           - energy_form_telescoped(w, s)) <= 1e-12

    def test_matches_on_infinite_vectors(self):
        for x in (Fraction(2, 3), Fraction(32, 57), Fraction(64, 77)):
            w = expand_reciprocal(x, prefer_finite=False).weights()
            for s in (-0.5, 0.5, 2.0):
                assert energy_form_telescoped(w, s) == pytest.approx(
                    energy_form(w, s), abs=1e-13)


class TestAgainstHighPrecision:
    @pytest.mark.parametrize("n", [3, 13771, 999983, 2 ** 19 + 1])
    @pytest.mark.parametrize("s", [-0.5, 0.5, 3.5])
    def test_energy_form_mpmath(self, n, s):
        exps = [i for i in range(n.bit_length()) if (n >> i) & 1][::-1]
        th = [mpmath.mpf(1 << e) / n for e in exps]
        b = [sum(th[j + 1:], mpmath.mpf(0)) for j in range(len(th))]
        ss = mpmath.mpf(s)
        ref = sum(t ** (ss + 1) + 2 * (2 ** ss - 1) * t ** ss * bb
                  for t, bb in zip(th, b))
        assert energy_form(binary_weights(n), s) == pytest.approx(
            float(ref), rel=1e-13)
