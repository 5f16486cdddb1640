import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracles
from rieszgreedy import arith, limits
from rieszgreedy.arith import (energy_form, leja_offset, log_kernel_form,
                              power_sum)
from rieszgreedy.binary import binary_weights, expand_reciprocal, grid_point
from rieszgreedy.cli import main
from rieszgreedy.limits import (SCAN_TARGETS, GridScan, batch_eta_values,
                                child_identities, energy_form_at,
                                interval_estimate, leja_offset_at,
                                log_kernel_form_at, log_moment_at,
                                power_sum_at, scan_extremum,
                                stationarity_residual)

HALF = Fraction(1, 2)


class TestPointEvaluators:
    def test_worked_value(self):
        assert energy_form_at(Fraction(2, 3), 2.0) == pytest.approx(
            11.0 / 9.0, abs=1e-15)

    @pytest.mark.parametrize("s", [-0.5, 1.0 / 3.0, 3.5])
    def test_endpoints_are_one(self, s):
        assert energy_form_at(1, s) == pytest.approx(1.0, abs=1e-15)
        assert energy_form_at(HALF, s) == pytest.approx(1.0, abs=1e-15)

    def test_unity_on_grid_at_degenerate_s(self):
        for n in range(8):
            x = grid_point(4, n)
            assert energy_form_at(x, 0.0) == pytest.approx(1.0, abs=1e-14)
            assert energy_form_at(x, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_offset_and_kernel_at_one(self):
        assert leja_offset_at(1) == pytest.approx(0.0, abs=1e-15)
        assert log_kernel_form_at(1) == pytest.approx(0.0, abs=1e-15)

    def test_power_sum_and_moment_at_half(self):
        for s in (0.5, 2.0):
            assert power_sum_at(HALF, s) == pytest.approx(
                1.0 / (2.0 ** s - 1.0), rel=1e-14)
        assert log_moment_at(HALF) == pytest.approx(-2.0 * math.log(2.0),
                                                    rel=1e-15)

    def test_float_arguments_work(self):
        # floats are exact dyadics; continuity keeps values meaningful
        assert energy_form_at(2.0 / 3.0, 2.0) == pytest.approx(11.0 / 9.0,
                                                               abs=1e-12)
        assert energy_form_at(0.7071067811865476, -0.5) > 1.0

    @pytest.mark.parametrize("at, x, s, shown", [
        (energy_form_at, 0.7, -0.99, "x = 0.7, s = -0.99"),
        (energy_form_at, Fraction(3, 4), -0.99, "x = 3/4, s = -0.99"),
        (energy_form_at, 0.7, -0.97, "x = 0.7, s = -0.97"),
        (power_sum_at, 0.7, 0.005, "x = 0.7, s = 0.005")])
    def test_unreachable_tol_named(self, at, x, s, shown):
        # the weights stop at binary place 1021; a caller of an *_at
        # function has no expansion to rebuild
        with pytest.raises(ValueError) as err:
            at(x, s)
        message = str(err.value)
        assert message.startswith(f"{at.__name__}({shown}, tol = 1e-12)")
        assert "tol cannot be reached at this s" in message
        assert "binary place 1021" in message
        assert "rebuild" not in message


def mp_form_at(x, target: str, s=None) -> float:
    """The limit form at x in 50-digit mpmath, summed over the binary
    digits of 1/x (of the exact value of a float x) to 1400 terms, with
    exact suffix masses."""
    xq = Fraction(x)
    taken = Fraction(0)
    with mpmath.workdps(50):
        xm, log2, total = mpmath.mpf(xq.numerator) / xq.denominator, mpmath.log(2), 0
        for i, k in enumerate(expand_reciprocal(xq, max_terms=1400).exponents):
            theta = mpmath.ldexp(xm, -k)
            taken += Fraction(1, 1 << k)
            rest = 1 - xq * taken
            b = mpmath.mpf(rest.numerator) / rest.denominator
            if target == "energy_form":
                total += (theta ** (s + 1)
                          + 2 * (mpmath.mpf(2) ** s - 1) * theta ** s * b)
            elif target == "log_kernel_form":
                total += (theta ** 2 * (mpmath.log(theta) - 2 * log2)
                          + 2 * theta * mpmath.log(theta) * b)
            elif target == "leja_offset":
                total -= (2 * log2 * i + mpmath.log(theta)) * theta
            else:
                total += theta * mpmath.log(theta)
        if target == "log_kernel_form":
            total += 2 * log2
        return float(total)


class TestFloatArguments:
    """A float x is a dyadic with a long reciprocal expansion: that of 2/3
    takes places 0, 1, 54, 55, 108, ..., so its weights leave the float
    range within 256 terms, and that of 7/10 needs a deep expansion at
    s = -0.9, where the dropped tail enters as its power 0.1."""

    @pytest.mark.parametrize("target, x, s", [
        ("energy_form", 2.0 / 3.0, -0.5),
        ("log_kernel_form", 2.0 / 3.0, None),
        ("leja_offset", 2.0 / 3.0, None),
        ("log_moment", 2.0 / 3.0, None),
        ("energy_form", 0.7, -0.9),
        ("energy_form", Fraction(7, 10), -0.9)])
    def test_against_mpmath(self, target, x, s):
        at = getattr(limits, target + "_at")
        got = at(x) if s is None else at(x, s)
        assert abs(got - mp_form_at(x, target, s)) <= 1e-12


class TestWellDefinedness:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_both_expansions_agree(self, m):
        for n in range(1 << (m - 1)):
            x = grid_point(m, n)
            w_fin = expand_reciprocal(x).weights()
            w_inf = expand_reciprocal(x, prefer_finite=False).weights()
            for s in (-0.5, 1.0 / 3.0, 3.5):
                assert abs(energy_form(w_fin, s)
                           - energy_form(w_inf, s)) <= 1e-10
            assert abs(log_kernel_form(w_fin)
                       - log_kernel_form(w_inf)) <= 1e-10
            assert abs(leja_offset(w_fin) - leja_offset(w_inf)) <= 1e-10


class TestBatchValues:
    def test_matches_scalar_evaluators(self):
        rng = random.Random(21)
        ns = np.array([rng.randint(2, 1 << 20) for _ in range(64)]
                      + [rng.randrange(1 << 40, 1 << 53) for _ in range(64)])
        cases = [("log_kernel_form", None, log_kernel_form),
                 ("leja_offset", None, leja_offset)]
        cases += [("energy_form", s, lambda w, s=s: energy_form(w, s))
                  for s in (0.7, -0.5, 1.0 / 3.0, 3.5)]
        for target, s, fn in cases:
            got = batch_eta_values(ns, target, s)
            for n, v in zip(ns, got):
                ref = fn(binary_weights(int(n)))
                assert abs(v - ref) <= 1e-14 * max(1.0, abs(ref)), (target, s, n)

    def test_doubling_invariance(self):
        # binary_weights(2n) == binary_weights(n), and the kernel keeps
        # that exactly: the nested-grid form of criterion 7b relies on it
        rng = random.Random(52)
        ns = np.array([n for k in (1, 4, 13, 20, 33, 46, 51)
                       for n in [1 << k, (1 << (k + 1)) - 1]
                       + [rng.randrange(1 << k, 1 << (k + 1))
                          for _ in range(16)]], dtype=np.int64)
        for target in SCAN_TARGETS:
            for s in ((-0.5, 1.0 / 3.0, 3.5) if target == "energy_form"
                      else (None,)):
                assert np.array_equal(batch_eta_values(2 * ns, target, s),
                                      batch_eta_values(ns, target, s)), \
                    (target, s)

    def test_validations(self):
        with pytest.raises(ValueError):
            batch_eta_values(np.array([1, 2]), "energy_form")
        with pytest.raises(ValueError):
            batch_eta_values(np.array([0]), "leja_offset")
        with pytest.raises(ValueError):
            batch_eta_values(np.array([3]), "bogus")
        with pytest.raises(ValueError):
            batch_eta_values(np.array([3, 1 << 53]), "leja_offset")

    @pytest.mark.parametrize("target", ["leja_offset", "log_kernel_form"])
    @pytest.mark.parametrize("s", [0.5, 0.0, -0.5])
    def test_s_free_targets_reject_an_s(self, target, s):
        # an s the target has no use for is an error, not silently dropped
        for call in (lambda: batch_eta_values([5, 7], target, s),
                     lambda: scan_extremum(4, target, s),
                     lambda: GridScan(4, [("energy_form", 0.5), (target, s)])):
            with pytest.raises(ValueError, match=f"{target} takes no s"):
                call()


class TestSharedKernel:
    """One bit peel per block for every panel gives each panel the values
    of the one-panel kernel, bit for bit, in any panel order; and the
    work-buffer kernel gives the values of the per-expression kernel of
    tests/oracles.py, bit for bit."""

    PANELS = ([("leja_offset", None), ("log_kernel_form", None)]
              + [("energy_form", s)
                 for s in (-0.9, -0.5, 1.0 / 3.0, 0.9, 2.5, 3.5, 1022.9)])

    @staticmethod
    def bits(values) -> np.ndarray:
        return np.asarray(values, np.float64).view(np.uint64)

    # every N of an order-m grid has m + 1 bits, so blocks of 1 or 3 only
    # add calls; they stop at orders 11 and 13 to keep the test short
    @pytest.mark.parametrize("chunk,top", [(1, 11), (3, 13), (1 << 15, 14)])
    def test_grid_blocks(self, monkeypatch, chunk, top):
        rng = random.Random(chunk)
        grids = {m: (1 << m) + 1 + 2 * np.arange(1 << (m - 1), dtype=np.int64)
                 for m in range(1, top + 1)}
        want = {(m, panel): self.bits(batch_eta_values(ns, *panel))
                for m, ns in grids.items() for panel in self.PANELS}
        monkeypatch.setattr(limits, "_CHUNK", chunk)
        for m in grids:
            panels = rng.sample(self.PANELS, len(self.PANELS))
            blocks = []
            GridScan(m, panels).run(lambda xs, values: blocks.append(values))
            assert len(blocks) == -(-grids[m].size // chunk)
            for k, panel in enumerate(panels):
                got = self.bits(np.concatenate([values[k] for values in blocks]))
                assert np.array_equal(got, want[m, panel]), (m, panel)

    def assert_matches_oracle(self, ns, rng):
        panels = rng.sample(self.PANELS, len(self.PANELS))
        checked = [(t, limits._check_target(t, s)) for t, s in panels]
        got = limits._chunk_values(ns, checked)
        want = oracles.chunk_values(ns, checked)
        assert len(got) == len(want) == len(panels)
        for g, w, panel in zip(got, want, panels):
            assert np.array_equal(self.bits(g), self.bits(w)), panel

    @pytest.mark.parametrize("m", range(1, 15))
    def test_oracle_on_grid_blocks(self, m):
        ns = (1 << m) + 1 + 2 * np.arange(1 << (m - 1), dtype=np.int64)
        self.assert_matches_oracle(ns, random.Random(m))

    def test_oracle_on_mixed_binades(self):
        ns = np.concatenate([np.arange(1, 5001, dtype=np.int64),
                             (1 << 52) + np.arange(64, dtype=np.int64)])
        rng = random.Random(11)
        for _ in range(3):
            self.assert_matches_oracle(ns, rng)

    @pytest.mark.parametrize("chunk", [37, 1 << 15])
    def test_mixed_binades(self, monkeypatch, chunk):
        # the blocks' bit depths differ: 1..13 bits, then 53
        ns = np.concatenate([np.arange(1, 5001, dtype=np.int64),
                             (1 << 52) + np.arange(64, dtype=np.int64)])
        want = {panel: self.bits(batch_eta_values(ns, *panel)) for panel in self.PANELS}
        monkeypatch.setattr(limits, "_CHUNK", chunk)
        rng = random.Random(7)
        for _ in range(3):
            panels = rng.sample(self.PANELS, len(self.PANELS))
            checked = [(t, limits._check_target(t, s)) for t, s in panels]
            blocks = [limits._chunk_values(ns[i:i + chunk], checked)
                      for i in range(0, ns.size, chunk)]
            for k, panel in enumerate(panels):
                got = self.bits(np.concatenate([values[k] for values in blocks]))
                assert np.array_equal(got, want[panel]), panel


class TestScanExtremum:
    def test_structure(self):
        r = scan_extremum(10, "energy_form", 1.0 / 3.0)
        assert r.orientation == "min"
        assert r.extremum == r.values.min()
        assert float(r.arg) == pytest.approx(r.xs[r.arg_index])
        assert r.error_bound == pytest.approx(2.0 ** (1.0 / 3.0) / 2.0 ** 9)

    def test_max_orientation(self):
        for s in (-0.5, 2.0):
            r = scan_extremum(8, "energy_form", s)
            assert r.orientation == "max"
            assert r.extremum == r.values.max()
        for target in ("log_kernel_form", "leja_offset"):
            r = scan_extremum(8, target)
            assert r.orientation == "max"
            assert r.error_bound is None

    def test_negative_s_bound_formula(self):
        r = scan_extremum(6, "energy_form", -0.5)
        want = 2.0 ** ((1 - 6) * 0.5) / (math.log(2.0) * (2.0 ** 0.5 - 1.0))
        assert r.error_bound == pytest.approx(want, rel=1e-14)

    def test_degenerate_targets_rejected(self):
        for s in (0.0, 1.0):
            with pytest.raises(ValueError):
                scan_extremum(8, "energy_form", s)
        with pytest.raises(ValueError):
            scan_extremum(8, "energy_form", -1.5)
        with pytest.raises(ValueError):
            scan_extremum(0, "leja_offset")
        with pytest.raises(ValueError):
            scan_extremum(25, "leja_offset")

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(ValueError):
            scan_extremum(8, "energy_form", s)

    @pytest.mark.parametrize("call", [
        lambda: energy_form_at(0.5, 1023.5),
        lambda: energy_form_at(0.75, 1023.5),
        lambda: stationarity_residual(0.75, 1023.5),
        lambda: batch_eta_values([5, 6, 7], "energy_form", 1023.5),
        lambda: energy_form(binary_weights(5), 1023.5)],
        ids=["energy_form_at-dyadic", "energy_form_at", "stationarity_residual",
             "batch_eta_values", "arith.energy_form"])
    def test_form_kernels_reject_s_from_1023(self, call):
        # 2 (2^s - 1) overflows there: nan or a bare "math range error" before
        with pytest.raises(ValueError, match="1023"):
            call()

    def test_s_where_the_kernel_overflows_rejected(self):
        # 2 (2^s - 1) is finite below s = 1023: the values stay finite
        r = scan_extremum(8, "energy_form", 1022.9)
        assert np.isfinite(r.values).all() and math.isfinite(r.error_bound)
        for s in (1023.0, 1023.5, 2000.0):
            with pytest.raises(ValueError, match="1023"):
                scan_extremum(8, "energy_form", s)

    def test_values_match_point_evaluators(self):
        r = scan_extremum(6, "energy_form", 0.4)
        for n in range(0, 32, 7):
            x = grid_point(6, n)
            assert r.values[n] == pytest.approx(energy_form_at(x, 0.4),
                                                abs=1e-13)


class TestGridScan:
    """The block-by-block reduction, on stand-in values with ties that
    cross block boundaries."""

    PANELS = [("leja_offset", None), ("energy_form", 0.5), ("energy_form", 2.0)]

    @staticmethod
    def stand_in(ns, target, s=None):
        if target == "leja_offset":  # max 1 at every N = 0 mod 7
            return (ns % 7 == 0).astype(float)
        if s < 1.0:  # min -1 at every N = 0 mod 5
            return -(ns % 5 == 0).astype(float)
        return 1.0 / ns  # max at the first N only

    @pytest.mark.parametrize("chunk", [1, 2, 4, 5, 1 << 15])
    @pytest.mark.parametrize("m", [4, 7])
    def test_ties_go_to_the_smallest_x(self, monkeypatch, chunk, m):
        calls = []

        def stand_in(ns, panels):
            calls.append((ns.copy(), list(panels)))
            return [self.stand_in(ns, target, s) for target, s in panels]

        monkeypatch.setattr(limits, "_chunk_values", stand_in)
        monkeypatch.setattr(limits, "_CHUNK", chunk)
        blocks = []
        results = GridScan(m, self.PANELS).run(
            lambda xs, values: blocks.append((xs, values)))
        ns = (1 << m) + 1 + 2 * np.arange(1 << (m - 1))
        # one kernel call per block, covering every panel
        assert len(calls) == len(blocks) == -(-ns.size // chunk)
        assert all(panels == self.PANELS for _, panels in calls)
        assert np.array_equal(np.concatenate([block for block, _ in calls]), ns)
        assert np.array_equal(np.concatenate([b[0] for b in blocks]),
                              float(1 << m) / ns)
        for k, ((target, s), r) in enumerate(zip(self.PANELS, results)):
            values = self.stand_in(ns, target, s)
            assert np.array_equal(np.concatenate([b[1][k] for b in blocks]), values)
            pick = values.min() if r.orientation == "min" else values.max()
            idx = int(np.nonzero(values == pick)[0][-1])
            assert (r.extremum, r.arg_index) == (pick, idx)
            assert r.arg == Fraction(1 << m, int(ns[idx]))
            assert r.xs is None and r.values is None

    @pytest.mark.parametrize("block", [0, 2])
    @pytest.mark.parametrize("k", [0, 1])
    def test_a_nan_value_raises(self, monkeypatch, tmp_path, capsys, block, k):
        # panel k is nan from the second N of the block on: the scan names
        # that N, and no block holding a nan reaches the sink
        m, chunk = 5, 4
        first = (1 << m) + 1 + 2 * (block * chunk + 1)

        def stand_in(ns, panels):
            values = [self.stand_in(ns, target, s) for target, s in panels]
            values[k][ns >= first] = np.nan
            return values

        monkeypatch.setattr(limits, "_chunk_values", stand_in)
        monkeypatch.setattr(limits, "_CHUNK", chunk)
        blocks = []
        target, s = self.PANELS[k]
        with pytest.raises(ValueError, match=re.escape(
                f"{target} at s = {s} is nan at grid N = {first}")):
            GridScan(m, self.PANELS).run(lambda xs, values: blocks.append(xs))
        assert len(blocks) == block

        monkeypatch.setattr(limits, "_chunk_values", lambda ns, panels: [
            np.where(ns >= first, np.nan, 1.0 / ns) for _ in panels])
        capsys.readouterr()
        assert main(["scan", "--M", str(m), "--target", "offset",
                     "--out", str(tmp_path / "scan.csv")]) == 2
        assert main(["figures", "--M", str(m), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"scan: leja_offset at s = None is nan at grid N = {first}",
                       f"figures: leja_offset at s = None is nan at grid N = {first}"]

    def test_checks_before_scanning(self, monkeypatch):
        monkeypatch.setattr(limits, "_chunk_values", None)
        for m, panels in [(0, [("leja_offset", None)]),
                          (4, [("leja_offset", None), ("energy_form", 1.0)]),
                          (4, [("energy_form", None)]), (4, [("bogus", None)])]:
            with pytest.raises(ValueError):
                GridScan(m, panels)


class TestGlobalBounds:
    def test_energy_form_stationarity_bounds_on_grid(self):
        ns = (1 << 12) + 1 + 2 * np.arange(1 << 11, dtype=np.int64)
        for s in (1.0 / 3.0, 0.5, 0.9):
            vals = batch_eta_values(ns, "energy_form", s)
            lo = 2.0 * (2.0 ** s - 1.0) / (s + 1.0)
            assert vals.min() >= lo - 1e-12
            assert vals.max() <= 1.0 + 1e-12
        for s in (1.5, 2.0, 3.5, 7.0):
            vals = batch_eta_values(ns, "energy_form", s)
            hi = 2.0 * (2.0 ** s - 1.0) / (s + 1.0)
            assert vals.min() >= 1.0 - 1e-12
            assert vals.max() <= hi + 1e-12

    @pytest.mark.parametrize("s,lo,hi", [
        (0.5, 1.0, 1.0 / (2.0 ** 0.5 - 1.0)),
        (2.0, 1.0 / 3.0, 1.0),
    ])
    def test_power_sum_range_on_grid(self, s, lo, hi):
        xs = [Fraction(1, 2), Fraction(1)]
        xs += [grid_point(12, n) for n in range(0, 1 << 11, 8)]
        values = [power_sum_at(x, s) for x in xs]
        assert min(values) >= lo - 1e-12
        assert max(values) <= hi + 1e-12
        # endpoints attained at x = 1 and x = 1/2
        attained = {power_sum_at(Fraction(1), s), power_sum_at(HALF, s)}
        assert min(attained) == pytest.approx(lo, abs=1e-12)
        assert max(attained) == pytest.approx(hi, abs=1e-12)


class TestIntervalEstimate:
    def test_log_case_endpoint(self):
        lo, hi = interval_estimate(0.0, 14)
        assert lo == 0.0
        assert hi < math.log(4.0 / 3.0)
        assert hi > math.log(4.0 / 3.0) - 1e-3

    def test_one(self):
        lo, hi = interval_estimate(1.0, 10)
        assert lo == 0.0 and 0.0 < hi < 0.2

    def test_two_sided_cases(self):
        lo, hi = interval_estimate(1.0 / 3.0, 10)
        assert hi == 1.0 and 0.0 < lo < 1.0
        lo, hi = interval_estimate(2.0, 10)
        assert lo == 1.0
        # stationarity bound 2(2^s-1)/(s+1) = 2 at s = 2
        assert 1.0 < hi <= 2.0

    def test_domain(self):
        with pytest.raises(ValueError):
            interval_estimate(-1.5, 8)
        with pytest.raises(ValueError):
            interval_estimate(0.5, 0)

    @pytest.mark.parametrize("s,target,side", [
        (1.0 / 3.0, "energy_form", 0), (3.5, "energy_form", 1),
        (0.0, "leja_offset", 1), (1.0, "log_kernel_form", 1)])
    def test_best_over_orders(self, s, target, side):
        # the free endpoint is the running best of the per-order scans, so
        # it never moves away from the constant (the order-m extremum
        # alone does: s = 1/3 steps back from order 10 to 11)
        scan_s = s if target == "energy_form" else None
        extrema = [scan_extremum(k, target, scan_s).extremum for k in range(1, 15)]
        best = min if 0.0 < s < 1.0 else max
        prev = None
        for m in range(6, 15):
            end = interval_estimate(s, m)[side]
            assert end == best(extrema[:m])
            if prev is not None:
                assert best(prev, end) == end, (m, prev, end)
            prev = end


class TestStationarityResidual:
    def test_boundary_value_at_one(self):
        for s in (0.5, 2.0):
            assert stationarity_residual(1, s) == pytest.approx(
                1.0 - 2.0 / (s + 1.0), abs=1e-13)

    def test_small_near_minimizer(self):
        # at the grid argmin the residual sits well below the grid's
        # typical residual magnitude
        m = 16
        r = scan_extremum(m, "energy_form", 1.0 / 3.0)
        at_arg = abs(stationarity_residual(r.arg, 1.0 / 3.0))
        sample = [abs(stationarity_residual(
            Fraction(1 << m, (1 << m) + 2 * n + 1), 1.0 / 3.0))
            for n in range(0, 1 << (m - 1), 256)]
        assert at_arg <= 0.25 * float(np.median(sample))

    def test_sign_change_brackets_argmax(self):
        m = 12
        r = scan_extremum(m, "energy_form", 2.0)
        idx = r.arg_index

        def res(i):
            return stationarity_residual(
                Fraction(1 << m, (1 << m) + 2 * i + 1), 2.0)

        left, mid, right = res(idx - 1), res(idx), res(idx + 1)
        assert min(left, mid, right) < 0.0 < max(left, mid, right)

    @pytest.mark.parametrize("s", [0.2, 0.5, 2.0])
    def test_deep_expansion(self, s):
        # the power sum of a non-terminating 1/x needs the deep expansion
        w = expand_reciprocal(0.7, prefer_finite=False, max_terms=512).weights()
        want = (energy_form(w, s) - 2.0 * math.expm1(s * math.log(2.0))
                / (s + 1.0) * power_sum(w, s))
        got = stationarity_residual(0.7, s)
        assert math.isfinite(got) and abs(got - want) <= 1e-14

    def test_tol_out_of_reach_names_the_call(self):
        # at s = 0.005 the tail past binary place 1021 still weighs about 8
        with pytest.raises(ValueError, match=re.escape(
                "stationarity_residual(x = 0.7, s = 0.005, tol = 1e-12): "
                "tol cannot be reached")) as info:
            stationarity_residual(0.7, 0.005)
        assert not isinstance(info.value, arith.TruncationError)

    def test_domain(self):
        with pytest.raises(ValueError):
            stationarity_residual(Fraction(2, 3), 0.0)
        with pytest.raises(ValueError):
            stationarity_residual(Fraction(2, 3), 1.0)


class TestChildIdentities:
    @pytest.mark.parametrize("m,n,s", [(1, 0, 2.0), (3, 2, -0.5)])
    def test_spot_checks(self, m, n, s):
        lhs_odd, rhs_odd, lhs_even, rhs_even = child_identities(m, s)
        assert lhs_odd[n] == pytest.approx(rhs_odd[n], abs=1e-13)
        assert lhs_even[n] == pytest.approx(rhs_even[n], abs=1e-13)

    def test_children_are_neighbors(self):
        x = grid_point(5, 7)
        assert grid_point(6, 15) < x < grid_point(6, 14)

    @staticmethod
    def three_walks(m, s):
        """The identities from separate walks over N, 2N + 1 and 2N - 1,
        each x by its own formula."""
        ns = (1 << m) + 1 + 2 * np.arange(1 << (m - 1), dtype=np.int64)
        h = batch_eta_values(ns, "energy_form", s)
        h_odd = batch_eta_values(2 * ns + 1, "energy_form", s)
        h_evn = batch_eta_values(2 * ns - 1, "energy_form", s)
        xf = float(1 << m) / ns
        xof = float(1 << (m + 1)) / (2 * ns + 1)
        xef = float(1 << (m + 1)) / (2 * ns - 1)
        pow_head = np.zeros(ns.size)
        for k in range(m):
            pow_head += 2.0 ** (-k * s) * ((ns >> (m - k)) & 1)
        pow_full = pow_head + 2.0 ** (-m * s)
        c = math.expm1(s * math.log(2.0))
        rhs1 = ((1.0 - (xof / xf) ** (s + 1.0)) * h
                - xof ** (s + 1.0) * (2.0 ** (-(m + 1) * (s + 1.0))
                                      + c * 2.0 ** (-m) * pow_full))
        rhs2 = (((xf / xef) ** (s + 1.0) - 1.0) * h_evn
                + xf ** (s + 1.0) * ((2.0 ** (s + 1.0) - 1.0)
                                     * 2.0 ** (-(m + 1) * (s + 1.0))
                                     + c * 2.0 ** (-m) * pow_head))
        return h - h_odd, rhs1, h - h_evn, rhs2

    @pytest.mark.parametrize("s", [0.5, 3.5, -0.5, 2.0, 1.0 / 3.0])
    def test_one_walk_matches_three_bit_for_bit(self, s):
        # 2N has the weights and x of N, so one walk over 2N - 1, 2N, 2N + 1
        # gives what three walks gave
        for m in range(1, 11):
            got = child_identities(m, s)
            want = self.three_walks(m, s)
            for g, w in zip(got, want):
                assert g.view(np.int64).tolist() == w.view(np.int64).tolist(), m


class TestContinuity:
    def test_small_perturbation_stability(self):
        # the modulus of continuity at s = -1/2 scales like sqrt(distance)
        # (new components enter as theta^{s+1}), so a displacement of
        # 2^-24 is needed to stay under 1e-3; 2^-20 lands at ~1.4e-3
        rng = random.Random(22)
        for _ in range(20):
            m = rng.randint(2, 12)
            n = rng.randrange(1 << (m - 1))
            x = float(grid_point(m, n))
            for s in (-0.5, 1.0 / 3.0, 3.5):
                base = energy_form_at(grid_point(m, n), s)
                for side in (-1.0, 1.0):
                    y = x + side * 2.0 ** -24
                    assert abs(energy_form_at(y, s) - base) <= 1e-3

    def test_one_sided_limits_of_power_sum(self):
        # the power sum jumps at a two-expansion point: the finite value is
        # the left limit, the infinite expansion gives the right limit
        x = Fraction(2, 3)
        s = 0.5
        left = power_sum_at(float(x) - 2.0 ** -30, s)
        right = power_sum_at(float(x) + 2.0 ** -30, s)
        fin = power_sum_at(x, s)
        w_inf = expand_reciprocal(x, prefer_finite=False).weights()
        from rieszgreedy.arith import power_sum
        inf = power_sum(w_inf, s)
        assert left == pytest.approx(fin, abs=1e-4)
        assert right == pytest.approx(inf, abs=1e-4)
        assert inf > fin


class TestCertifiedGaps:
    @pytest.mark.parametrize("s", [1.0 / 3.0, 3.5, -0.5])
    def test_step_gaps_within_certificates(self, s):
        d = {m: scan_extremum(m, "energy_form", s).extremum
             for m in range(4, 14)}
        for m in range(4, 13):
            if -1.0 < s < 0.0:
                bound = 2.0 ** ((1 - m) * (s + 1.0)) / (
                    math.log(2.0) * (2.0 ** (s + 1.0) - 1.0))
            else:
                bound = 2.0 ** s / 2.0 ** (m - 1)
            assert abs(d[m] - d[m + 1]) <= bound
