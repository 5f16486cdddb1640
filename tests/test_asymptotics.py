import math
import random
from functools import partial

import numpy as np
import pytest

from rieszgreedy import asymptotics
from rieszgreedy.arith import energy_form, leja_offset, log_kernel_form, log_moment
from rieszgreedy.asymptotics import (cesaro_mean, cesaro_means, cesaro_scales,
                                     doubling_gap, expansion_energies,
                                     expansion_energy, f_from_potentials,
                                     f_sequence, predict_t, remainder_scan,
                                     t_from_energies, t_predictions,
                                     t_sequence)
from rieszgreedy.binary import binary_weights
from rieszgreedy.energy import (EnergyParams, extremal_potential,
                                extremal_potentials, greedy_energies,
                                greedy_energy, roots_energy)
from rieszgreedy.limits import batch_eta_values
from rieszgreedy.special import EULER_GAMMA, arclength_energy


def bits(values) -> list[int]:
    """The IEEE bit patterns of floats, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# one s per branch of T and F: s < -1, -1, (-1, 0), 0, (0, 1), 1, > 1
BRANCH_S = [-1.5, -1.0, -0.413, 0.0, 1.0 / 3.0, 1.0, 3.5]


class TestTSequence:
    def test_log_case_is_offset(self):
        for n in range(2, 1001):
            assert t_sequence(n, 0.0) == pytest.approx(
                leja_offset(binary_weights(n)), abs=1e-12)

    def test_log_case_powers_of_two(self):
        for k in range(1, 13):
            assert abs(t_sequence(1 << k, 0.0)) <= 1e-14

    def test_inverse_square_at_four(self):
        assert t_sequence(4, 2.0) == pytest.approx(5.0 / 64.0, abs=1e-16)
        assert 5.0 / 64.0 == 1.0 / 12.0 - 1.0 / 192.0

    def test_branch_guards(self):
        for bad in (1e-12, 1.0 + 1e-12, -1.0 - 1e-12, -1.0 + 1e-12):
            with pytest.raises(ValueError):
                t_sequence(16, bad)
        with pytest.raises(ValueError):
            t_sequence(16, -2.0)
        with pytest.raises(ValueError):
            t_sequence(1, 0.5)

    def test_generic_branch_continuous_in_s(self):
        for n in (37, 100):
            base = t_sequence(n, 0.5)
            for ds in (-1e-7, 1e-7):
                assert abs(t_sequence(n, 0.5 + ds) - base) < 1e-5

    def test_liminf_band_at_minus_one(self):
        lo = -math.pi / (3.0 * math.log(2.0)) - 0.05
        values = [t_sequence(n, -1.0) for n in range(16, (1 << 14) + 1)]
        assert min(values) >= lo
        assert max(values) < 0.0


    @pytest.mark.parametrize("s", BRANCH_S)
    def test_array_form_bit_identical(self, s):
        ns = np.arange(2, 1500)
        energies = greedy_energies(ns, EnergyParams(s))
        want = [t_sequence(int(n), s) for n in ns]
        assert bits(t_from_energies(ns, energies, s)) == bits(want)

    def test_array_form_domain(self):
        with pytest.raises(ValueError):
            t_from_energies([1, 2], np.zeros(2), 0.5)
        with pytest.raises(ValueError):
            t_from_energies([2], np.zeros(1), 1.0 + 1e-12)
        with pytest.raises(ValueError):
            t_from_energies([2], np.zeros(1), -2.0)


class TestFSequence:
    @pytest.mark.parametrize("s", BRANCH_S)
    def test_array_form_bit_identical(self, s):
        ns = np.arange(1, 1500)
        potentials = extremal_potentials(ns, EnergyParams(s))
        want = [f_sequence(int(n), s) for n in ns]
        assert bits(f_from_potentials(ns, potentials, s)) == bits(want)

    @pytest.mark.parametrize("s", [-1.5, -0.5])
    def test_first_value(self, s):
        want = 2.0 ** (-s) - arclength_energy(s)
        assert f_sequence(1, s) == pytest.approx(want, rel=1e-13)

    def test_bounded_band_half(self):
        values = [f_sequence(n, 0.5) for n in range(1, 4097)]
        assert -1.3 < min(values) and max(values) < -0.4

    def test_bounded_band_two(self):
        values = [f_sequence(n, 2.0) for n in range(1, 4097)]
        assert 0.0 < min(values) and max(values) < 0.26

    def test_log_kernel_prediction_at_one(self):
        # remainder against the gamma + log(8/pi) + log-moment constant
        # decays like 1/n
        worst = 0.0
        for n in range(64, 1025):
            pred = (EULER_GAMMA + math.log(8.0 / math.pi)
                    + log_moment(binary_weights(n))) / math.pi
            worst = max(worst, abs(f_sequence(n, 1.0) - pred) * n)
        assert worst < 0.08


class TestPredictT:
    def test_log_case_exact(self):
        for n in (2, 7, 100, 4096):
            value, scale = predict_t(n, 0.0)
            assert t_sequence(n, 0.0) - value == pytest.approx(0.0, abs=1e-14)
            assert scale == 1.0

    def test_inverse_square_remainder(self):
        # T - H/12 equals -1/(12 n^2): 1e-13 on the plain difference; the
        # n^2-scaled form carries the float noise of T amplified by n^2
        for n in range(2, 2049):
            value, scale = predict_t(n, 2.0)
            assert scale == float(n) ** 2
            diff = t_sequence(n, 2.0) - value
            assert diff == pytest.approx(-1.0 / (12.0 * n * n), abs=1e-13)
            assert diff * scale == pytest.approx(-1.0 / 12.0, abs=1e-9)

    def test_one_matches_log_kernel_constant(self):
        for n in (3, 21, 999):
            value, scale = predict_t(n, 1.0)
            want = (EULER_GAMMA + math.log(2.0 / math.pi)
                    + log_kernel_form(binary_weights(n))) / math.pi
            assert value == pytest.approx(want, rel=1e-14)
            assert scale == float(n) ** 2

    def test_remainder_scales_by_case(self):
        n = 64
        assert predict_t(n, 0.5).remainder_scale == pytest.approx(n ** 1.5)
        assert predict_t(n, 2.5).remainder_scale == pytest.approx(n ** 1.5)
        assert predict_t(n, 3.0).remainder_scale == pytest.approx(
            n ** 2 / math.log(n))
        assert predict_t(n, 3.5).remainder_scale == pytest.approx(n ** 2)
        assert predict_t(n, -1.0).remainder_scale == pytest.approx(math.log(n))

    def test_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            predict_t(16, -1.5)
        with pytest.raises(ValueError):
            t_predictions([16], -1.5)

    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 3.5])
    def test_array_form(self, s):
        # the scales are bit-identical; the predictions take the forms
        # from the batch kernel, within a few ulps of the exact evaluators
        ns = np.arange(2, 1200)
        values, scales = t_predictions(ns, s)
        want = [predict_t(int(n), s) for n in ns]
        assert bits(scales) == bits([w.remainder_scale for w in want])
        for got, ref in zip(values.tolist(), want):
            assert abs(got - ref.value) <= 1e-14 * max(1.0, abs(ref.value))


class TestExpansionEnergy:
    def test_even_case_exact(self):
        params = EnergyParams(2.0)
        for n in range(2, 1025):
            exact = greedy_energy(n, params)
            assert expansion_energy(n, 2.0) == pytest.approx(exact, rel=1e-11)

    def test_minus_one_remainder_bounded(self):
        # E - (4/pi) n^2 + (pi/3) H(.;-1) stays bounded on the desk range
        params = EnergyParams(-1.0)
        worst = 0.0
        for n in range(2, 4097):
            rho = greedy_energy(n, params) - expansion_energy(n, -1.0)
            worst = max(worst, abs(rho))
        assert worst < 0.3

    def test_minus_one_matches_hand_formula(self):
        for n in (5, 100, 2047):
            w = binary_weights(n)
            want = (4.0 / math.pi * n * n
                    - math.pi / 3.0 * energy_form(w, -1.0))
            assert expansion_energy(n, -1.0) == pytest.approx(want, rel=1e-13)

    def test_one_constant_consistency(self):
        # the m = 0 constants reproduce the T prediction at s = 1
        for n in (3, 21, 999):
            t_level = (expansion_energy(n, 1.0)
                       - n * n * math.log(n) / math.pi) / (n * n)
            assert t_level == pytest.approx(predict_t(n, 1.0).value, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            expansion_energy(16, 0.0)
        with pytest.raises(ValueError):
            expansion_energy(16, -1.5)
        with pytest.raises(ValueError):
            expansion_energy(1, 2.0)


    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.5, 2.0, 3.0, 3.001, 3.5,
                                   4.999, 5.0])
    def test_array_form_within_term_tolerance(self, s):
        # includes the odd-s log branch (3, 5) and s = 3.001, where the
        # zeta(s - 2) pole term cancels against I_s n^2
        rng = random.Random(11)
        ns = np.array(list(range(2, 1025))
                      + [rng.randrange(1 << 10, 1 << 50) for _ in range(200)])
        got = expansion_energies(ns, s)
        terms = asymptotics._expansion_terms(
            ns.astype(float), partial(batch_eta_values, ns), s)
        size = sum(np.abs(c) for c in terms)
        for n, v, scale in zip(ns.tolist(), got.tolist(), size.tolist()):
            assert abs(v - expansion_energy(n, s)) <= 1e-14 * scale, n

    @pytest.mark.parametrize("s", [1.5, 2.5, 3.421, 4.7])
    def test_powers_of_two_within_8_ulp(self, s):
        # at n = 2^k the expansion is that of the roots energy; with
        # n^{1+s-2j} as n^{s-2j} n no rounded exponent s + 1 costs ulps
        for k in (12, 13, 14):
            n = 1 << k
            want = roots_energy(n, EnergyParams(s))
            assert abs(expansion_energy(n, s) - want) <= 8 * math.ulp(want), k
            got = expansion_energies([n], s)[0]
            assert abs(got - want) <= 8 * math.ulp(want), k

    def test_array_form_domain(self):
        for bad in (0.0, -1.5, 1.0 + 1e-12):
            with pytest.raises(ValueError):
                expansion_energies([16], bad)
        with pytest.raises(ValueError):
            expansion_energies([1, 16], 2.0)

    def test_power_overflow_names_n_and_s(self):
        # at s = 126, n^s fits the float range up to n = 279 but n^s * n
        # not from n = 268 on, though the energy there is about 3e242
        for call in (lambda: expansion_energy(270, 126.0),
                     lambda: expansion_energies(range(270, 280), 126.0)):
            with pytest.raises(OverflowError) as err:
                call()
            assert str(err.value) == "n^126.0 * n overflows at n = 270, s = 126.0"
        assert math.isfinite(expansion_energy(267, 126.0))


class TestRemainderScan:
    def test_even_case_vanishes(self):
        scan = remainder_scan(2.0, 2, 1024)
        scale = max(abs(r.exact_energy) for r in scan.rows)
        assert scan.max_scaled <= 1e-11 * scale

    def test_log_case_vanishes(self):
        scan = remainder_scan(0.0, 2, 1024)
        assert scan.max_scaled <= 1e-13

    def test_half_leading_level_stable(self):
        scan = remainder_scan(0.5, 2, 4096, level="leading")
        assert not scan.diverging
        assert scan.octave_sups[-1] <= 1.2 * scan.octave_sups[-2]
        # leading and expansion remainders coincide for |s| < 1
        scan2 = remainder_scan(0.5, 2, 4096)
        assert scan2.max_scaled == pytest.approx(scan.max_scaled, rel=1e-6)

    def test_row_invariant(self):
        scan = remainder_scan(3.5, 16, 256, level="leading")
        for row in scan.rows:
            assert row.remainder == row.scaled_value - row.prediction

    def test_validations(self):
        with pytest.raises(ValueError):
            remainder_scan(1.0, 2, 1 << 15)
        with pytest.raises(ValueError):
            remainder_scan(1.0, 2, 64, level="bogus")


class TestDoublingGap:
    def test_log_case_exactly_zero(self):
        for n in (2, 3, 100, 1000):
            assert abs(doubling_gap(n, 0.0)) <= 1e-14

    def test_inverse_square_closed_form(self):
        for n in range(3, 65):
            assert doubling_gap(n, 2.0) == pytest.approx(
                1.0 / (16.0 * n * n), abs=1e-13)

    def test_shrinks_along_powers_of_two(self):
        gaps = [abs(doubling_gap(1 << k, 0.5)) for k in range(2, 11)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestCesaroMean:
    def test_identity_against_direct_sum(self):
        # the closed form equals the literal average of potential deviations
        for s in (-0.5, -1.5):
            params = EnergyParams(s)
            cont = arclength_energy(s)
            for n in (1, 2, 17, 50):
                direct = sum(extremal_potential(k, params) - k * cont
                             for k in range(1, n + 1)) / n
                assert cesaro_mean(n, s) == pytest.approx(direct, abs=1e-10)

    def test_limit_value(self):
        for s in (-0.5, -1.0, -1.5):
            want = arclength_energy(s) / 2.0
            assert cesaro_mean(1 << 14, s) == pytest.approx(want, abs=5e-2)

    def test_domain(self):
        for bad in (0.0, 0.5, -2.0, -2.5):
            with pytest.raises(ValueError):
                cesaro_mean(100, bad)
            with pytest.raises(ValueError):
                cesaro_means([100], bad)
            with pytest.raises(ValueError):
                cesaro_scales([100], bad)

    @pytest.mark.parametrize("s", [-1.999, -1.5, -1.0, -0.413])
    def test_array_form_bit_identical(self, s):
        ns = np.arange(1, 2000)
        want = [cesaro_mean(int(n), s) for n in ns]
        assert bits(cesaro_means(ns, s)) == bits(want)
