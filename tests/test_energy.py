import math

import numpy as np
import pytest

from rieszgreedy.arith import leja_offset
from rieszgreedy.binary import binary_weights
from rieszgreedy import energy
from rieszgreedy.energy import (CircleConfig, EnergyParams, config_energy,
                                extremal_potential, extremal_potentials,
                                greedy_energies, greedy_energy,
                                greedy_oracle, prefix_energies, roots_energy)


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
            assert roots_energy(1, EnergyParams(s)) == 0.0

    @pytest.mark.parametrize("s", [-1.5, -0.5, 0.5, 2.0, 3.5])
    def test_antipodal_pair(self, s):
        assert roots_energy(2, EnergyParams(s)) == pytest.approx(
            2.0 * 2.0 ** (-s), rel=1e-15)

    def test_log_case(self):
        for n in (2, 3, 10, 1000):
            assert roots_energy(n, EnergyParams(0.0)) == -n * math.log(n)

    def test_inverse_square_closed_form(self):
        # the two-term zeta expansion collapses to (N^3 - N)/12 exactly
        for n in range(2, 51):
            assert roots_energy(n, EnergyParams(2.0)) == pytest.approx(
                (n ** 3 - n) / 12.0, rel=1e-12)

    @pytest.mark.parametrize("s", [-0.5, 0.5, 2.0])
    def test_direct_pairwise_all_n(self, s):
        params = EnergyParams(s)
        for n in range(2, 513):
            angles = 2.0 * np.pi * np.arange(n) / n
            ref = pairwise_energy_reference(angles, s)
            assert roots_energy(n, params) == pytest.approx(ref, rel=1e-11)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            roots_energy(0, EnergyParams(1.0))


class TestGreedyEnergy:
    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 0.5, 2.0, 3.5])
    def test_powers_of_two_collapse(self, s):
        params = EnergyParams(s)
        for k in range(11):
            assert greedy_energy(1 << k, params) == roots_energy(1 << k, params)

    @pytest.mark.parametrize("s", [-0.5, 0.5, 1.0, 3.5])
    def test_three_points(self, s):
        params = EnergyParams(s)
        assert greedy_energy(3, params) == pytest.approx(
            0.5 * roots_energy(4, params), rel=1e-14)

    def test_three_points_inverse_square(self):
        # explicit configuration {1, -1, i}: pairs at distance 2, sqrt2, sqrt2
        assert greedy_energy(3, EnergyParams(2.0)) == pytest.approx(
            2 * (1 / 4 + 1 / 2 + 1 / 2), rel=1e-15)

    def test_log_energy_offset_identity(self):
        for n in range(3, 65):
            want = -n * math.log(n) + n * leja_offset(binary_weights(n))
            assert greedy_energy(n, EnergyParams(0.0)) == pytest.approx(
                want, abs=1e-11)

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_monotone_growth(self, s):
        params = EnergyParams(s)
        prev = greedy_energy(2, params)
        for n in range(3, 1025):
            cur = greedy_energy(n, params)
            assert cur > prev
            prev = cur

    def test_domain(self):
        with pytest.raises(ValueError):
            greedy_energy(8, EnergyParams(-2.0))
        with pytest.raises(ValueError):
            greedy_energy(0, EnergyParams(1.0))
        assert greedy_energy(1, EnergyParams(1.0)) == 0.0

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(ValueError, match="not finite"):
            EnergyParams(s)


class TestGreedyEnergies:
    NS = list(range(1, 4097)) + list(range((1 << 16) - 512, (1 << 16) + 1))

    @pytest.mark.parametrize("s", [-1.5, -1.0, -0.5, 0.0, 1.0 / 3.0, 1.0, 2.0, 3.5])
    def test_bit_identical_to_scalar(self, s):
        params = EnergyParams(s)
        want = [greedy_energy(n, params) for n in self.NS]
        assert bits(greedy_energies(np.array(self.NS), params)) == bits(want)

    @pytest.mark.parametrize("s", [-0.5, 0.0, 2.0])
    def test_potentials_bit_identical_to_scalar(self, s):
        params = EnergyParams(s)
        ns = list(range(1, 600)) + [(1 << 16) - 3, (1 << 16) - 1]
        want = [extremal_potential(n, params) for n in ns]
        assert bits(extremal_potentials(np.array(ns), params)) == bits(want)

    @pytest.mark.parametrize("top", [1 << 16, (1 << 16) - 7])
    def test_requests_the_scalar_roots_energies(self, top):
        # a window just below a power of two, like the large-n benchmark:
        # both routes must ask for the same L(2^k), no more (each miss is
        # 2^{k-1} sines) and no fewer
        ns = np.arange(top - 255, top + 1)
        params = EnergyParams(0.37)
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

    def test_domain(self):
        assert greedy_energies([], EnergyParams(1.0)).shape == (0,)
        assert bits(greedy_energies([1], EnergyParams(1.0))) == bits([0.0])
        for bad in ([0, 3], [3, 1 << 53]):
            with pytest.raises(ValueError):
                greedy_energies(bad, EnergyParams(1.0))
        with pytest.raises(ValueError):
            greedy_energies([8], EnergyParams(-2.0))


class TestGreedyOracle:
    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 2.0])
    def test_matches_closed_form_small(self, s):
        params = EnergyParams(s)
        config, energy = greedy_oracle(16, params, grid_bits=14)
        pe = prefix_energies(config, params)
        assert energy == pytest.approx(pe[-1], rel=1e-12)
        for n in range(2, 17):
            formula = greedy_energy(n, params)
            assert pe[n - 1] == pytest.approx(formula, rel=1e-9, abs=1e-9)

    def test_second_point_is_antipodal(self):
        for s in (-1.0, 0.5, 2.0):
            config, energy = greedy_oracle(2, EnergyParams(s), grid_bits=14)
            assert config.angles[0] == 0.0
            assert config.angles[1] == pytest.approx(math.pi, abs=1e-10)
            assert energy == pytest.approx(2.0 * 2.0 ** (-s), rel=1e-12)
        config, energy = greedy_oracle(2, EnergyParams(0.0), grid_bits=14)
        assert energy == pytest.approx(-2.0 * math.log(2.0), rel=1e-12)

    def test_first_four_points_equally_spaced(self):
        config, energy = greedy_oracle(4, EnergyParams(1.0), grid_bits=16)
        got = np.sort(np.asarray(config.angles))
        want = np.array([0.0, 0.5, 1.0, 1.5]) * math.pi
        assert np.max(np.abs(got - want)) < 1e-9
        assert energy == pytest.approx(roots_energy(4, EnergyParams(1.0)),
                                       rel=1e-10)

    def test_validations(self):
        with pytest.raises(ValueError):
            greedy_oracle(1, EnergyParams(1.0))
        with pytest.raises(ValueError):
            greedy_oracle(100, EnergyParams(1.0), grid_bits=8)
        with pytest.raises(ValueError):
            greedy_oracle(8, EnergyParams(-2.5))


class TestExtremalPotential:
    @pytest.mark.parametrize("s", [-1.5, -0.5, 0.5, 2.0])
    def test_first_value(self, s):
        assert extremal_potential(1, EnergyParams(s)) == pytest.approx(
            2.0 ** (-s), rel=1e-14)

    @pytest.mark.parametrize("s", [-0.5, 0.5, 2.0])
    def test_second_value(self, s):
        params = EnergyParams(s)
        want = 0.5 * (0.5 * roots_energy(4, params) - roots_energy(2, params))
        assert extremal_potential(2, params) == pytest.approx(want, rel=1e-13)

    def test_log_band(self):
        # -U/log(N+1) stays inside a fixed band over the whole desk range
        params = EnergyParams(0.0)
        for n in range(1, 4097):
            f = -extremal_potential(n, params) / math.log(n + 1.0)
            assert 0.0 <= f <= 1.01


class TestCircleConfig:
    def test_rejects_coincident(self):
        with pytest.raises(ValueError):
            CircleConfig((0.0, 1.0, 0.0))

    def test_csv_export(self, tmp_path):
        config = CircleConfig((0.0, math.pi / 3.0, 1.25))
        path = tmp_path / "angles.csv"
        config.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines == [f"{a:.17g}" for a in config.angles]

    def test_config_energy_against_reference(self):
        rng = np.random.default_rng(5)
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=40))
        config = CircleConfig(tuple(angles))
        for s in (-0.5, 0.0, 0.5, 2.0):
            assert config_energy(config, EnergyParams(s)) == pytest.approx(
                pairwise_energy_reference(angles, s), rel=1e-12)
