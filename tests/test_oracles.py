"""T, F, the prediction of T and the Cesaro mean each have one body,
which their scalar and array forms both run.  Both forms are held here to
the scalar references in :mod:`oracles` by IEEE bits, so -0.0 and 0.0
differ.  The energy expansion is a bit sum over a per-exponent table:
its two forms agree by IEEE bits, and both stay within 8 eps times the
sum of the absolute values of the terms of the term-by-term reference.
The array form of the parent-child identities is held to the per-point
route within a rounding tolerance."""

import math
import random

import numpy as np
import pytest

import oracles
from rieszgreedy import asymptotics, limits
from rieszgreedy.energy import extremal_potentials, greedy_energies
from rieszgreedy.limits import batch_eta_values

S = [-1.5, -1.0, -0.413, 0.0, 1.0 / 3.0, 1.0, 2.0, 3.0, 3.5, 5.0]
_rng = random.Random(20261018)
NS = list(range(2, 2001)) + [_rng.randrange(1 << 20, 1 << 52) for _ in range(300)]
#: beyond the float integers, for the scalar forms only; at 2^53 + 1,
#: float(n) * float(n) and float(n) + 1 differ from n * n and n + 1
HUGE = [(1 << 53) + 1, (1 << 60) + 12345, (1 << 70) + 3]


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def both(pairs) -> list[int]:
    """The bits of the values and then of the scales of predictions."""
    return bits([p[0] for p in pairs]) + bits([p[1] for p in pairs])


def takes(check, s: float) -> bool:
    try:
        check(s)
    except ValueError:
        return False
    return True


def with_batch_forms(monkeypatch, ns) -> None:
    """Give the oracles the batch kernel's forms of ns in place of the
    exact evaluators, as the array forms take them."""
    tables = {}

    def form(target, s=None):
        if (target, s) not in tables:
            values = batch_eta_values(np.array(ns), target, s).tolist()
            tables[target, s] = dict(zip(ns, values))
        return tables[target, s]

    monkeypatch.setattr(oracles, "binary_weights", lambda n: n)
    monkeypatch.setattr(oracles, "energy_form",
                        lambda n, s: form("energy_form", s)[n])
    monkeypatch.setattr(oracles, "leja_offset",
                        lambda n: form("leja_offset")[n])
    monkeypatch.setattr(oracles, "log_kernel_form",
                        lambda n: form("log_kernel_form")[n])


@pytest.mark.parametrize("s", S)
def test_t(s):
    want = bits([oracles.t_sequence(n, s) for n in NS + HUGE])
    assert bits([asymptotics.t_sequence(n, s) for n in NS + HUGE]) == want
    energies = greedy_energies(NS, s)
    assert bits(asymptotics.t_from_energies(NS, energies, s)) == want[:len(NS)]


@pytest.mark.parametrize("s", S)
def test_f(s):
    ns = [1] + NS
    want = bits([oracles.f_sequence(n, s) for n in ns + HUGE])
    assert bits([asymptotics.f_sequence(n, s) for n in ns + HUGE]) == want
    potentials = extremal_potentials(ns, s)
    assert (bits(asymptotics.f_from_potentials(ns, potentials, s))
            == want[:len(ns)])


@pytest.mark.parametrize("s", [s for s in S
                               if takes(asymptotics._check_prediction_s, s)])
def test_prediction(s, monkeypatch):
    ns = NS + HUGE
    want = both([oracles.predict_t(n, s) for n in ns])
    assert both([asymptotics.predict_t(n, s) for n in ns]) == want
    with_batch_forms(monkeypatch, NS)
    want = both([oracles.predict_t(n, s) for n in NS])
    values, scales = asymptotics.t_predictions(NS, s)
    assert bits(values) + bits(scales) == want


@pytest.mark.parametrize("s", [s for s in S
                               if takes(asymptotics._check_expansion_s, s)])
def test_expansion(s):
    ns = NS + HUGE
    got = [asymptotics.expansion_energy(n, s) for n in ns]
    assert bits(asymptotics.expansion_energies(NS, s)) == bits(got[:len(NS)])
    eps = np.finfo(float).eps
    for n, value in zip(ns, got):
        size = math.fsum(map(abs, oracles.expansion_terms(n, s)))
        assert abs(value - oracles.expansion_energy(n, s)) <= 8 * eps * size, n


@pytest.mark.parametrize("s", [s for s in S
                               if takes(asymptotics._check_cesaro_s, s)])
def test_cesaro(s):
    ns = [1] + NS
    want = bits([oracles.cesaro_mean(n, s) for n in ns + HUGE])
    assert bits([asymptotics.cesaro_mean(n, s) for n in ns + HUGE]) == want
    assert bits(asymptotics.cesaro_means(ns, s)) == want[:len(ns)]


@pytest.mark.parametrize("s", [1.0, 2.0, 5.0])
def test_square_scale_rounded_once(s):
    # 94906297^2 has 54 bits and ends in a 1, halfway between two floats;
    # the scale n^2 is n * n rounded once (to even), where glibc's
    # pow(n, 2.0) rounds it up
    n = 94906297
    assert asymptotics.predict_t(n, s).remainder_scale == float(n * n)
    assert asymptotics.t_predictions([n], s)[1][0] == float(n * n)


@pytest.mark.parametrize("s", [-0.9, -0.5, 1.0 / 3.0, 0.999, 1.001, 2.0, 3.5, 7.0])
def test_child_identities(s):
    # the batch kernel and the exact evaluators differ by up to
    # 2e-15 max(1, |h|) (see limits.batch_eta_values)
    for m in range(1, 11):
        sides = np.array(limits.child_identities(m, s))
        h = batch_eta_values((1 << m) + 1 + 2 * np.arange(1 << (m - 1)),
                             "energy_form", s)
        want = np.array([np.ravel(oracles.child_identities(m, n, s))
                         for n in range(1 << (m - 1))]).T
        assert np.all(np.abs(sides - want) <= 2e-15 * np.maximum(1.0, np.abs(h))), m
