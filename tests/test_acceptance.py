"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them on success).

Criterion 7 is split: 7a checks the certified step-gap bounds between
grid extrema of consecutive orders; 7b checks that the best grid
extremum over all orders <= m moves towards the extremal constant as m
grows.  The extremum over the order-m grid alone need not (the grids of
different orders are disjoint); counterexamples are in the 7b comment.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from rieszgreedy.arith import (energy_form, leja_offset, log_kernel_form,
                               log_moment, power_sum)
from rieszgreedy.asymptotics import (cesaro_mean, expansion_energy,
                                     predict_t, t_sequence)
from rieszgreedy.binary import binary_weights, grid_point
from rieszgreedy.energy import greedy_energy, greedy_oracle, prefix_energies
from rieszgreedy.limits import batch_eta_values, scan_extremum
from rieszgreedy.special import arclength_energy

LOG43 = math.log(4.0 / 3.0)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {label}")
        raise
    print(f"[PASS] criterion {label}")


def test_criterion_01_figure_constants():
    targets = {
        (-0.5, "energy_form"): 1.3924456,
        (1.0 / 3.0, "energy_form"): 0.9489466,
        (3.5, "energy_form"): 2.2640277,
        (None, "log_kernel_form"): 0.1747397,
    }
    with criterion("1: published scan constants at grid order 16"):
        for (s, target), want in targets.items():
            t0 = time.perf_counter()
            result = scan_extremum(16, target, s)
            elapsed = time.perf_counter() - t0
            assert abs(result.extremum - want) <= 5e-7, (s, target)
            assert elapsed <= 60.0


def test_criterion_02_log_energy_identity():
    with criterion("2: T at s=0 equals the offset form, zero at powers of 2"):
        for n in range(2, (1 << 12) + 1):
            diff = t_sequence(n, 0.0) - leja_offset(binary_weights(n))
            assert abs(diff) <= 1e-12, n
        for k in range(1, 13):
            assert abs(t_sequence(1 << k, 0.0)) <= 1e-14, k


def test_criterion_03_log_interval_endpoint():
    with criterion("3: offset supremum over grid order 16 approaches log(4/3)"):
        result = scan_extremum(16, "leja_offset")
        assert LOG43 - 2.0 ** -14 < result.extremum < LOG43


def test_criterion_04_even_case_exactness():
    with criterion("4: inverse-square expansion is exact"):
        params = 2.0
        for n in range(2, (1 << 10) + 1):
            exact = greedy_energy(n, params)
            assert abs(expansion_energy(n, 2.0) - exact) <= 1e-11 * abs(exact)
        for n in range(2, (1 << 10) + 1):
            value, _ = predict_t(n, 2.0)
            diff = t_sequence(n, 2.0) - value
            assert abs(diff + 1.0 / (12.0 * n * n)) <= 1e-13, n


def test_criterion_05_oracle_equivalence():
    with criterion("5: brute-force greedy matches the closed form"):
        t0 = time.perf_counter()
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5):
            params = s
            config, _ = greedy_oracle(64, params, grid_bits=20,
                                      refine_tol=1e-12)
            energies = prefix_energies(config, params)
            for n in range(2, 65):
                formula = greedy_energy(n, params)
                gap = abs(energies[n - 1] - formula) / max(1.0, abs(formula))
                assert gap <= 1e-7, (s, n)
        assert time.perf_counter() - t0 <= 300.0


def test_criterion_06_remainder_boundedness():
    with criterion("6: leading remainders stable across octaves"):
        for s in (0.5, 1.0, 3.0, 3.5):
            sups = []
            for k in range(4, 13):
                lo, hi = 1 << k, (1 << (k + 1)) - 1
                worst = 0.0
                for n in range(lo, hi + 1):
                    value, scale = predict_t(n, s)
                    worst = max(worst, abs(t_sequence(n, s) - value) * scale)
                sups.append(worst)
            assert sups[-1] <= 1.2 * sups[-2], (s, sups)


def _scan_extrema(s, m_range):
    return {m: scan_extremum(m, "energy_form", s).extremum for m in m_range}


def _certified_step_bound(s, m):
    if -1.0 < s < 0.0:
        return 2.0 ** ((1 - m) * (s + 1.0)) / (math.log(2.0)
                                               * (2.0 ** (s + 1.0) - 1.0))
    return 2.0 ** s / 2.0 ** (m - 1)


def test_criterion_07_certified_step_gaps():
    with criterion("7a: grid-refinement steps within certified bounds"):
        for s in (1.0 / 3.0, 3.5, -0.5):
            d = _scan_extrema(s, range(4, 14))
            for m in range(4, 13):
                assert abs(d[m] - d[m + 1]) <= _certified_step_bound(s, m), \
                    (s, m)


def test_criterion_07_monotone_direction():
    # The order-m grid is the odd N in (2^m, 2^{m+1}), so grids of
    # different orders are disjoint and the extremum over one order alone
    # is not always on the far side of the previous one.  Counterexamples
    # at desk scale:  s = 1/3: d_10 = 0.9489492519 < d_11 = 0.9489503149;
    # s = 7/2: d_5 = 2.2637490776 > d_6 = 2.2626771552.
    # Since binary_weights(2N) == binary_weights(N), the integers in
    # [2^m, 2^{m+1}) carry every grid of order <= m, plus x = 1 at N = 2^m
    # (value 1, never beyond a grid extremum).  Their extremum D_m is
    # therefore the best grid extremum over orders <= m; the sets are
    # nested, so refining the grid never moves D_m away from the constant.
    with criterion("7b: best grid extremum over orders <= m monotone in m"):
        failures = []
        for s in (1.0 / 3.0, 3.5, -0.5):
            minimize = 0.0 < s < 1.0
            best = min if minimize else max
            running = best(scan_extremum(k, "energy_form", s).extremum
                           for k in range(1, 4))
            d = {}
            for m in range(4, 15):
                running = best(running,
                               scan_extremum(m, "energy_form", s).extremum)
                ns = np.arange(1 << m, 1 << (m + 1), dtype=np.int64)
                values = batch_eta_values(ns, "energy_form", s)
                d[m] = float(values.min() if minimize else values.max())
                assert d[m] == running, (s, m, d[m], running)
            for m in range(4, 14):
                step = d[m] - d[m + 1]
                monotone = step >= 0.0 if minimize else step <= 0.0
                if not monotone:
                    failures.append((s, m, d[m], d[m + 1]))
        assert not failures, (
            "best grid extrema over orders <= m are not monotone in m: "
            + "; ".join(f"s={s:.4g}: D_{m}={a:.10f} vs D_{m + 1}={b:.10f}"
                        for s, m, a, b in failures))


def test_criterion_08_cesaro_rates():
    cases = (
        (-0.5, lambda n: float(n) ** 0.5),
        (-1.0, lambda n: n / math.log(n)),
        (-1.5, lambda n: float(n)),
    )
    with criterion("8: Cesaro deviations bounded at the stated rates"):
        for s, scale in cases:
            half = arclength_energy(s) / 2.0
            scaled = [abs(cesaro_mean(1 << k, s) - half) * scale(1 << k)
                      for k in range(8, 15)]
            assert max(scaled) <= 2.0, (s, scaled)
            assert scaled[-1] <= 1.2 * max(scaled[:-1]), (s, scaled)


def test_criterion_09_parent_child_identities():
    from rieszgreedy.limits import child_identities
    with criterion("9: parent-child identities exhaustively to order 6"):
        worst = 0.0
        for s in (-0.5, 1.0 / 3.0, 3.5):
            for m in range(1, 7):
                lhs_odd, rhs_odd, lhs_even, rhs_even = child_identities(m, s)
                assert lhs_odd.size == 1 << (m - 1)
                worst = max(worst, np.abs(lhs_odd - rhs_odd).max(),
                            np.abs(lhs_even - rhs_even).max())
        assert worst <= 1e-12, worst


def test_criterion_10_bounds_suite():
    with criterion("10: convexity and range bounds on random and grid inputs"):
        t0 = time.perf_counter()
        rng = random.Random(1234)
        ns = np.array(sorted(rng.randint(2, 1 << 20) for _ in range(500)),
                      dtype=np.int64)

        # convexity bounds around the two fixed points of the energy form
        for s in (0.25, 0.5, 0.75):
            assert batch_eta_values(ns, "energy_form", s).max() <= 1.0 + 1e-12
        for s in (-0.9, -0.5, 1.5, 2.0, 3.5, 7.0):
            assert batch_eta_values(ns, "energy_form", s).min() >= 1.0 - 1e-12

        # stationarity bounds on the order-12 grid
        grid_ns = (1 << 12) + 1 + 2 * np.arange(1 << 11, dtype=np.int64)
        for s in (1.0 / 3.0, 0.5):
            vals = batch_eta_values(grid_ns, "energy_form", s)
            assert vals.min() >= 2.0 * (2.0 ** s - 1.0) / (s + 1.0) - 1e-12
            assert vals.max() <= 1.0 + 1e-12
        for s in (2.0, 3.5):
            vals = batch_eta_values(grid_ns, "energy_form", s)
            assert vals.min() >= 1.0 - 1e-12
            assert vals.max() <= 2.0 * (2.0 ** s - 1.0) / (s + 1.0) + 1e-12

        # growth-class bounds and the power-sum / log-moment ranges
        log2 = math.log(2.0)
        for n in map(int, ns):
            w = binary_weights(n)
            for s in (1.0, 2.0, 3.5):
                assert 0.0 < energy_form(w, s) < 2.0 ** (s + 1.0) - 1.0
            for s in (0.3, 0.7):
                assert energy_form(w, s) < (2.0 ** (s + 1.0) - 1.0) / (2.0 ** s - 1.0)
            for s in (-0.7, -0.3):
                assert energy_form(w, s) < 2.0 ** (s + 1.0) / (2.0 ** (s + 1.0) - 1.0)
            assert 0.0 < energy_form(w, -1.0) / math.log(n + 1) <= 1.0 / log2
            for s in (0.5,):
                assert 1.0 - 1e-12 <= power_sum(w, s) <= 1.0 / (2.0 ** s - 1.0) + 1e-12
            for s in (2.0,):
                assert 1.0 / (2.0 ** s - 1.0) - 1e-12 <= power_sum(w, s) <= 1.0 + 1e-12
            lam = log_moment(w)
            assert -2.0 * log2 - 1e-14 <= lam <= 1e-14
            total = sum(float(t) * abs(math.log(float(t))) for t in w.components)
            assert total <= math.log(4.0) + 1e-12
            assert abs(log_kernel_form(w)) <= 5.0 * math.log(4.0)

        # the same range bounds exhaustively over the order-12 grid
        for target, lo, hi in (("leja_offset", 0.0, LOG43),
                               ("log_kernel_form", -5 * math.log(4.0),
                                5 * math.log(4.0))):
            vals = batch_eta_values(grid_ns, target)
            assert vals.min() >= lo - 1e-12
            assert vals.max() <= hi

        assert time.perf_counter() - t0 <= 120.0
