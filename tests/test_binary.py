import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from rieszgreedy.binary import (ReciprocalExpansion, WeightVector,
                                binary_weights, bit_count, decompose,
                                expand_reciprocal, grid_point, grid_points)


class TestDecompose:
    def test_examples(self):
        assert decompose(5) == (2, 0)
        for k in range(12):
            assert decompose(1 << k) == (k,)
        # (4^3 - 1)/3 = 21
        assert decompose(21) == (4, 2, 0)

    @pytest.mark.parametrize("bad", [0, -1, -17])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            decompose(bad)

    @given(st.integers(min_value=1, max_value=1 << 40))
    def test_roundtrip(self, n):
        d = decompose(n)
        assert type(d) is tuple and sum(1 << e for e in d) == n
        assert all(a > b for a, b in zip(d, d[1:])) and d[-1] >= 0


class TestBitCount:
    def test_examples(self):
        assert bit_count(21) == 3
        for k in range(1, 14):
            assert bit_count(1 << k) == 1
            assert bit_count((1 << k) - 1) == k

    @given(st.integers(min_value=1, max_value=1 << 52))
    def test_log_bound(self, n):
        assert bit_count(n) <= math.log(n + 1) / math.log(2) + 1e-12


class TestBinaryWeights:
    def test_examples(self):
        assert binary_weights(1).components == (Fraction(1),)
        assert binary_weights(5).components == (Fraction(4, 5), Fraction(1, 5))

    def test_doubling_exhaustive(self):
        # exact invariance under n -> 2n across the full stated range
        for n in range(1, 1 << 16):
            assert binary_weights(2 * n).components == binary_weights(n).components

    def test_invariants_exhaustive_integer_arithmetic(self):
        # all checks as exact integer comparisons, no rationals involved
        for n in range(1, 1 << 16):
            exps = decompose(n)
            assert sum(1 << e for e in exps) == n
            assert 2 * (1 << exps[0]) > n >= (1 << exps[0])
            suffix = n
            prefix = 0
            for k, e in enumerate(exps, start=1):
                part = 1 << e
                suffix -= part
                prefix += part
                assert part * ((1 << k) - 1) <= n
                assert suffix <= part
                # prefix mass >= 1 - 2^{-(k-1)}
                assert prefix * (1 << (k - 1)) >= n * ((1 << (k - 1)) - 1)

    def test_validation_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            WeightVector(())
        with pytest.raises(ValueError):
            WeightVector((Fraction(1, 3), Fraction(2, 3)))  # leading < 1/2
        with pytest.raises(ValueError):
            WeightVector((Fraction(1, 2), Fraction(1, 2)))  # theta_2 > 1/3
        with pytest.raises(ValueError):
            WeightVector((Fraction(1, 2), Fraction(1, 4),
                          Fraction(1, 4)))  # theta_3 > 1/7
        with pytest.raises(ValueError):
            WeightVector((Fraction(3, 4),))  # mass deficit with no tail

    def test_suffix_masses(self):
        w = binary_weights(13)  # (8/13, 4/13, 1/13)
        assert w.suffix_masses() == [Fraction(5, 13), Fraction(1, 13),
                                     Fraction(0)]


class TestExpandReciprocal:
    def test_one(self):
        e = expand_reciprocal(1)
        assert e.exponents == (0,) and e.finite

    def test_two_thirds(self):
        e = expand_reciprocal(Fraction(2, 3))
        assert e.exponents == (0, 1) and e.finite
        assert e.weights().components == (Fraction(2, 3), Fraction(1, 3))

    def test_half_is_all_ones(self):
        e = expand_reciprocal(Fraction(1, 2))
        assert not e.finite
        assert e.exponents == (0,) and e.unit_tail_start == 1
        w = e.weights()
        assert w.components == (Fraction(1, 2),)
        assert w.unit_tail == Fraction(1, 4)

    def test_one_infinite_form(self):
        # the infinite expansion of 1/1 starts at exponent 1
        e = expand_reciprocal(1, prefer_finite=False)
        assert e.exponents == () and e.unit_tail_start == 1
        assert e.weights().components == (Fraction(1, 2),)
        assert e.reconstruct() == 1

    @pytest.mark.parametrize("bad", [0.3, 1.2, Fraction(1, 3), -1])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            expand_reciprocal(bad)

    def test_float_input_is_exact_dyadic(self):
        # 0.75 is exactly 3/4; its reciprocal 4/3 never terminates
        e = expand_reciprocal(0.75, max_terms=10)
        assert e.exponents == (0, 2, 4, 6, 8, 10, 12, 14, 16, 18)
        assert e.tail_bound > 0.0
        got = e.reconstruct()
        assert got <= Fraction(4, 3)
        assert (Fraction(4, 3) - got) * Fraction(3, 4) <= Fraction(e.tail_bound)

    def test_unique_expansion_truncation_bound(self):
        x = Fraction(3, 5)
        e = expand_reciprocal(x, max_terms=12)
        missing_mass = (1 / x - e.reconstruct()) * x
        assert 0 < missing_mass <= Fraction(e.tail_bound)

    def test_materialize(self):
        e = expand_reciprocal(Fraction(1, 2)).materialize(32)
        assert e.exponents == tuple(range(32))
        assert e.unit_tail_start is None and e.tail_bound > 0
        w = e.weights()
        assert len(w) == 32 and not w.exact


class TestTwoExpansions:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_structural_relation(self, m):
        # finite last exponent k_m <-> infinite tail from k_m + 1
        for n in range(1 << (m - 1)):
            x = grid_point(m, n)
            fin = expand_reciprocal(x)
            inf = expand_reciprocal(x, prefer_finite=False)
            assert fin.finite and not inf.finite
            assert inf.exponents == fin.exponents[:-1]
            assert inf.unit_tail_start == fin.exponents[-1] + 1
            assert fin.reconstruct() == inf.reconstruct() == 1 / x

    @pytest.mark.parametrize("m", range(1, 9))
    def test_grid_round_trip(self, m):
        for n in range(1 << (m - 1)):
            x = grid_point(m, n)
            e = expand_reciprocal(x)
            assert e.finite
            assert e.reconstruct() == 1 / x
            assert max(e.exponents) == m


class TestGrid:
    def test_examples(self):
        assert grid_points(1) == [Fraction(2, 3)]
        assert grid_points(2) == [Fraction(4, 5), Fraction(4, 7)]
        assert grid_point(3, 0) == Fraction(8, 9)

    def test_bounds(self):
        with pytest.raises(ValueError):
            grid_point(0, 0)
        with pytest.raises(ValueError):
            grid_point(3, 4)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_spacing(self, m):
        pts = sorted(grid_points(m) + [Fraction(1, 2), Fraction(1)])
        gap = max(b - a for a, b in zip(pts, pts[1:]))
        assert gap < Fraction(1, 1 << (m - 1))


class TestValidation:
    @pytest.mark.parametrize("args,kwargs,message", [
        ((Fraction(1, 2),), dict(unit_tail=Fraction(1, 4), tail_bound=0.5),
         "unit tail is exact; tail_bound must be 0"),
        ((Fraction(1),), dict(tail_bound=-1.0),
         "tail_bound must be non-negative"),
        ((Fraction(1, 2),), dict(unit_tail=Fraction(1, 2)),
         "unit tail must start at least one binary place"),
        ((Fraction(1, 2),), dict(unit_tail=Fraction(0)),
         "unit tail must start at least one binary place"),
        ((Fraction(1), Fraction(0)), {}, "component 2 is not positive"),
        ((Fraction(1), Fraction(-1, 4)), {}, "component 2 is not positive"),
        ((Fraction(1, 2), Fraction(3, 4)), {},
         "components must be non-increasing"),
        ((Fraction(1, 2), Fraction(1, 8)), {},
         "suffix mass exceeds a component"),
        ((Fraction(1), Fraction(1, 4)), {},
         "weights sum to 5/4, deficit -1/4 outside"),
    ])
    def test_weight_vector(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            WeightVector(args, **kwargs)

    @pytest.mark.parametrize("x,exponents,kwargs,message", [
        (Fraction(1, 3), (0,), {}, r"x = 1/3 outside \[1/2, 1\]"),
        (Fraction(2, 3), (1, 0), {}, "exponents must be strictly increasing"),
        (Fraction(2, 3), (0, 1), dict(unit_tail_start=1),
         "unit tail must start after the last exponent"),
        (Fraction(1, 2), (0,), dict(unit_tail_start=1, tail_bound=0.5),
         "unit tail is exact; tail_bound must be 0"),
        (Fraction(1), (), {}, "empty expansion"),
    ])
    def test_reciprocal_expansion(self, x, exponents, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ReciprocalExpansion(x, exponents, **kwargs)

    def test_expand_reciprocal_needs_a_term(self):
        with pytest.raises(ValueError, match="max_terms must be positive"):
            expand_reciprocal(0.7, max_terms=0)

    def test_suffix_masses_are_kept_out_of_the_fields(self):
        w = binary_weights(13)
        w.suffix_masses().clear()  # a new list each call
        assert w.suffix_masses() == [Fraction(5, 13), Fraction(1, 13), 0]
        assert repr(w) == ("WeightVector(components=(Fraction(8, 13), "
                           "Fraction(4, 13), Fraction(1, 13)), "
                           "unit_tail=None, tail_bound=0.0)")
        assert w == WeightVector(w.components)


def _oracle_xs() -> list:
    """Random floats and 100-bit Fractions, every grid point of orders
    1..9, and 1/2, 1 and 2/3: 993 values of x."""
    rng = random.Random(2604)
    xs = [rng.uniform(0.5, 1.0) for _ in range(400)]
    for _ in range(79):
        den = rng.randrange(1 << 100, 1 << 101)
        xs.append(Fraction(rng.randrange((den + 1) // 2, den + 1), den))
    xs += [x for m in range(1, 10) for x in grid_points(m)]
    return xs + [Fraction(1, 2), Fraction(1), Fraction(2, 3)]


@pytest.mark.parametrize("max_terms", [1, 5, 64, 256])
def test_expansion_matches_fraction_steps(max_terms):
    for x in _oracle_xs():
        for prefer_finite in (True, False):
            want = oracles.expand_reciprocal_fractions(x, prefer_finite,
                                                       max_terms)
            got = expand_reciprocal(x, prefer_finite, max_terms)
            assert got == want, x
