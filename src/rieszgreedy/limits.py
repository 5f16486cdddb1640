"""Limit-point functions on [1/2, 1] and exhaustive dyadic-grid scans for
the extremal constants, with certified convergence bounds.

Every grid point x = 2^m / (2^m + 2n + 1) corresponds to the odd integer
N = 2^m + 2n + 1 via the weight identity theta(x) = binary_weights(N), so
a grid scan is a vectorized sweep of the arithmetic functions over the odd
integers in (2^m, 2^{m+1}), evaluated in blocks by :class:`GridScan`, the
one scan path.  One block kernel, ``_chunk_values``, evaluates every form:
it peels a block's bits once for all the (target, s) panels of a scan, and
:func:`batch_eta_values` is its one-panel case, which the parent-child
identities (:func:`child_identities`) run on; the exact ``*_at`` functions
serve arbitrary x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import arith
from .binary import ReciprocalExpansion, expand_reciprocal, grid_point
from .special import finite_s

__all__ = [
    "energy_form_at",
    "log_kernel_form_at",
    "leja_offset_at",
    "power_sum_at",
    "log_moment_at",
    "batch_eta_values",
    "ScanResult",
    "GridScan",
    "scan_extremum",
    "interval_estimate",
    "stationarity_residual",
    "child_identities",
    "SCAN_TARGETS",
]

_LOG2 = math.log(2.0)

SCAN_TARGETS = ("energy_form", "log_kernel_form", "leja_offset")

_CHUNK = 1 << 15

def _weights_at(x, order: float, tol: float, prefer_finite: bool = True):
    """The weights of 1/x down to the binary place k where a dropped tail
    2^-k, entering the form as its power ``order``, is 2^-16 below tol (a
    margin for the factors of the :mod:`rieszgreedy.arith` bounds), but not
    past 1021, where a weight x 2^-k (x >= 1/2) would leave the normal
    floats.  Expansions ending above the place k stay exact."""
    place = 1021
    if order > 0.0 and tol > 0.0:
        place = math.ceil(min(place, max(1.0, (16.0 - math.log2(tol)) / order)))
    e = expand_reciprocal(x, prefer_finite, max_terms=place + 1)
    first = next((k for k in e.exponents if k > place), e.unit_tail_start)
    if first is not None and first > place:
        # the digits of 1/x from place ``first`` on add up to at most 2^{1-first}
        kept = tuple(k for k in e.exponents if k < first)
        bound = math.nextafter(float(e.x) * 2.0 ** (1 - first), math.inf)
        e = ReciprocalExpansion(e.x, kept, tail_bound=bound)
    return e.weights()


def _at(form, x, order: float, tol: float, *s) -> float:
    """``form(weights, *s, tol)``, s being () or (s,), on the weights of 1/x
    that :func:`_weights_at` keeps for ``order``."""
    try:
        return form(_weights_at(x, order, tol), *s, tol)
    except arith.TruncationError:
        given = "".join(f", s = {v}" for v in s)
        raise ValueError(f"{form.__name__}_at(x = {x}{given}, tol = {tol}): tol cannot "
                         f"be reached{' at this s' if s else ''}, as the weights of 1/x "
                         f"stop at binary place 1021") from None


def energy_form_at(x, s: float, tol: float = 1e-12) -> float:
    """The limit energy form at x in [1/2, 1]; equals 1 at both endpoints
    and for s in {0, 1}.

    Dyadic reciprocals have two expansions; both give the same value, and
    the terminating one is used.  ValueError where tol is out of reach.
    """
    return _at(arith.energy_form, x, s + 1.0, tol, s)


def log_kernel_form_at(x, tol: float = 1e-12) -> float:
    """The limit log-kernel form at x; expansion-independent."""
    return _at(arith.log_kernel_form, x, 1.0, tol)


def leja_offset_at(x, tol: float = 1e-12) -> float:
    """The limit offset function at x, ranging over [0, log(4/3)]."""
    return _at(arith.leja_offset, x, 1.0, tol)


def power_sum_at(x, s: float, tol: float = 1e-12) -> float:
    """The limit power sum at x for s > 0.

    Not expansion-independent: at a two-expansion x this uses the
    terminating expansion, which is the left-limit value; the infinite
    expansion gives the (different) right limit.  ValueError where tol is out of reach.
    """
    return _at(arith.power_sum, x, s, tol, s)


def log_moment_at(x, tol: float = 1e-12) -> float:
    """The limit log moment at x, in [-2 log 2, 0]; finite-expansion
    convention as in :func:`power_sum_at`."""
    return _at(arith.log_moment, x, 1.0, tol)


def _kernel_work(size: int) -> tuple:
    """The work arrays of :func:`_chunk_values` for blocks of up to
    ``size`` n: q (the float copy of n, then y, then q_k), x, log y, bw,
    bq, t and u, ``hit`` and the exponents of ``frexp``."""
    return (*(np.empty(size) for _ in range(7)), np.empty(size, bool),
            np.empty(size, np.intc))


def _chunk_values(ns: np.ndarray, panels, work: Optional[tuple] = None) -> list:
    """One block's values for each checked (target, s) panel, as new
    arrays: the bits of every n are peeled once, depth by depth, and each
    depth's terms go into each panel's own accumulator, by the same float
    operations, in the same order, as a one-panel pass.

    Every step but the accumulators' zeros runs in place, through ``out=``
    ufuncs and in-place operators, in the leading ``ns.size`` elements of
    ``work`` (:func:`_kernel_work`, made here if not given), so a caller
    that passes one ``work`` to every block makes no temporary per block.
    Block-sized arrays made and freed per call were faulted in again each
    time the allocator handed their pages back: a ``figures --M 20``
    process took 30.5k minor page faults in the kernel with an array per
    operation and depth, 8.0k with buffers made once per call, and takes
    4.6k with buffers made once per scan, nearly all on the new pages of
    the values it returns (5 panels of 256 KB per block).

    Every n of the block lies between its least and greatest, so it has
    their bits above the highest bit where those two differ, when they
    have the same top bit (a grid block of 2^15 N at order 20 shares its
    top 5 bits).  At such a depth no mask is formed: a bit every n has
    takes hw = w and hq = q, the same values by the same operations, and a
    bit none has is skipped, its every term being 0.0.  The energy form's
    2^{-ds} is finite at every depth d < 53, as s > -1024/52
    (:func:`_check_target`).
    """
    low, high = int(ns.min()), int(ns.max())
    depths = high.bit_length()
    shared = depths - (low ^ high).bit_length()  # below it, every n has the bit
    q, x, logy, bw, bq, t, u, hit, exponents = (
        a[:ns.size] for a in (work or _kernel_work(ns.size)))
    np.copyto(q, ns)
    np.frexp(q, out=(q, exponents))
    q *= 2.0  # y, then q_k once bit k is removed
    np.divide(1.0, q, out=x)
    np.log(q, out=logy)
    cs = [2.0 * math.expm1(s * _LOG2) if target == "energy_form" else 0.0
          for target, s in panels]
    accs = [np.zeros(ns.size) for _ in panels]
    for d in range(depths):
        w = 2.0 ** -d
        if d >= shared:
            np.greater_equal(q, w, out=hit)
            hw = np.multiply(hit, w, out=bw)
            q -= hw
            hq = np.multiply(hit, q, out=bq)
        elif high >> (depths - 1 - d) & 1:
            q -= w
            hw, hq = w, q
        else:
            continue
        for (target, s), c, acc in zip(panels, cs, accs):
            if target == "energy_form":  # 2^{-ds} (hw + c hq)
                np.multiply(hq, c, out=t)
                t += hw
                t *= 2.0 ** (-d * s)
            elif target == "leja_offset":  # d hw - 2 hq
                np.multiply(hw, d, out=t)
                np.multiply(hq, 2.0, out=u)
                t -= u
            else:  # w ((d + 2) hw + 2 d hq)
                np.multiply(hw, d + 2, out=t)
                np.multiply(hq, 2 * d, out=u)
                t += u
                t *= w
            acc += t
    for (target, s), acc in zip(panels, accs):
        if target == "energy_form":  # x^{s+1} acc
            acc *= np.power(x, s + 1.0, out=t)
        else:
            np.multiply(x, _LOG2, out=t)
            if target == "leja_offset":  # log y + x log 2 acc
                acc *= t
                acc += logy
            else:  # 2 log 2 - log y - x^2 log 2 acc
                t *= x
                acc *= t
                np.subtract(2.0 * _LOG2, logy, out=u)
                np.subtract(u, acc, out=acc)
    return accs


def _check_target(target: str, s: Optional[float]) -> Optional[float]:
    """s, checked finite, for a known target: the energy form needs one in
    (-1024/52, 1023), where 2^{-52 s} and 2 (2^s - 1) are finite floats,
    and the s-free targets take none."""
    if target not in SCAN_TARGETS:
        raise ValueError(f"target must be one of {SCAN_TARGETS}")
    if target != "energy_form":
        if s is not None:
            raise ValueError(f"{target} takes no s, got s = {s}")
        return None
    if s is None:
        raise ValueError("energy_form needs s")
    if -52.0 * arith.energy_form_s(s) >= 1024.0:  # 2^{-ds} at depth 52 overflows
        raise ValueError(f"energy form needs s > -1024/52 (about -19.69) for n "
                         f"up to 2^53, got s = {s}")
    return s


def batch_eta_values(ns, target: str, s: Optional[float] = None) -> np.ndarray:
    """Evaluate one arithmetic function on binary_weights(n) for an array
    of integers 1 <= n < 2^53, and the energy form for -1024/52 < s < 1023
    only (-1024/52 is about -19.69; ValueError naming s otherwise); the
    log-kernel and offset targets take no s (ValueError).  This is the
    one-panel case of the block kernel :class:`GridScan` runs, with the
    same values bit for bit.

    With n = 2^t y, y in [1, 2), x = 1/y and, for each exponent e_k of n,
    depth d_k = t - e_k and q_k = (n mod 2^{e_k}) 2^{-t} (so theta_k =
    x 2^{-d_k} and b_k = x q_k), one pass over the depths sums

    - energy_form = x^{s+1} sum 2^{-d_k s} (2^{-d_k} + 2(2^s - 1) q_k),
    - leja_offset = log y + x log 2 sum (d_k 2^{-d_k} - 2 q_k),
    - log_kernel_form = 2 log 2 - log y
      - x^2 log 2 sum 2^{-d_k} ((d_k + 2) 2^{-d_k} + 2 d_k q_k).

    Every term is built from exact dyadics and per-depth powers, and the
    only logarithm is of y, so nothing cancels against log n: the error
    against the exact evaluators in :mod:`rieszgreedy.arith` stays below
    2e-15 max(1, |value|) for n < 2^53 and s in [-0.9, 7].
    """
    from .energy import int_array  # the scans never load the energy layer
    panel = [(target, _check_target(target, s))]
    ns = int_array(ns, 1)
    if ns.size == 0:
        return np.empty(0)
    work = _kernel_work(min(ns.size, _CHUNK))
    return np.concatenate([_chunk_values(ns[i:i + _CHUNK], panel, work)[0]
                           for i in range(0, ns.size, _CHUNK)])


@dataclass(frozen=True)
class ScanResult:
    """Exhaustive evaluation of one target over the order-m dyadic grid.

    ``xs``/``values`` hold the grid in decreasing-x order, or are None
    where :meth:`GridScan.run` streamed the grid to a sink instead of
    keeping it.  ``extremum`` is the min for the energy form with
    0 < s < 1 and the max otherwise, with ties resolved to the smallest x;
    :class:`GridScan` reduces it block by block, for :func:`scan_extremum`
    and for the streamed scans alike.  ``error_bound`` certifies the
    distance to the true extremal constant for the energy form (no such
    certificate is known for the log-kernel or offset targets, whose only
    resolution statement is the grid spacing 2^{-m+1}).

    Grids of different orders are disjoint, so ``extremum`` at order m
    alone need not move towards the constant as m grows.  The monotone
    quantity is the best extremum over all orders <= m: it equals the
    extremum over all integers in (2^m, 2^{m+1}), which hold every grid of
    order <= m because binary_weights(2N) == binary_weights(N).
    """

    m: int
    target: str
    s: Optional[float]
    xs: Optional[np.ndarray]
    values: Optional[np.ndarray]
    extremum: float
    arg: Fraction
    arg_index: int
    orientation: str
    error_bound: Optional[float]


def _certified_bound(s: float, m: int) -> float:
    if 0.0 < s < 1.0 or s > 1.0:
        return 2.0 ** s / 2.0 ** (m - 1)
    # -1 < s < 0
    return 2.0 ** ((1 - m) * (s + 1.0)) / (_LOG2 * math.expm1((s + 1.0) * _LOG2))


def _check_panel(m: int, target: str, s: Optional[float]) -> Optional[float]:
    """Reject a (target, s), its s checked by :func:`_check_target`, that the
    order-m scan does not take (energy form: s > -1, not 0 or 1); return its
    certified bound or None."""
    if target != "energy_form":
        return None
    if s in (0.0, 1.0):
        raise ValueError(f"energy form is identically 1 at s = {s}")
    if s <= -1.0:
        raise ValueError(f"energy form scan needs s > -1, got s = {s}")
    return _certified_bound(s, m)


class GridScan:
    """One pass over the order-m dyadic grid for one or more (target, s)
    panels.

    The constructor checks m and every panel, so a caller can reject bad
    input before it opens anything.  :meth:`run` walks the odd N in
    (2^m, 2^{m+1}) in blocks of ``_CHUNK`` (x = 2^m / N decreasing),
    evaluates all panels on each block with one call of the block kernel
    ``_chunk_values``, which peels the block's bits once for every panel
    and forms no mask at the depths whose bit the whole block shares (at
    order 20, the top 5 bits of each block of 2^15 N), and reduces each
    panel's extremum block by block.  The kernel's work arrays and the
    block of N are made once per run and reused by every block, so only
    the values and the x column handed to the sink are new per block
    (``figures --M 20`` takes 4.6k minor page faults in the kernel, 8.0k
    with work arrays made per block); memory is O(block) per panel beyond
    what the sink keeps.
    """

    def __init__(self, m: int, panels):
        if not 1 <= m <= 24:
            raise ValueError("grid order m must be in [1, 24]")
        self.m = m
        self.panels = tuple(panels)
        self._checked = [(t, _check_target(t, s)) for t, s in self.panels]
        self._bounds = [_check_panel(m, t, s) for t, s in self._checked]

    def run(self, sink) -> list[ScanResult]:
        """Evaluate every panel on each block in one kernel call, call
        ``sink(xs, values)`` once per block, with the block's x column and
        one value array per panel, and return one :class:`ScanResult` per
        panel (``xs`` and ``values`` None).

        Each panel keeps its best value and index so far; a block's
        extremum replaces it unless strictly worse, and within a block the
        last index attaining it wins, so ties go to the smallest x.  A nan
        value raises ValueError naming the panel and its first nan grid N,
        before the block reaches the sink.
        """
        m = self.m
        count = 1 << (m - 1)
        minimize = [t == "energy_form" and 0.0 < s < 1.0 for t, s in self.panels]
        best: list = [None] * len(self.panels)  # (extremum, index) so far
        size = min(count, _CHUNK)
        work, steps = _kernel_work(size), 2 * np.arange(size, dtype=np.int64)
        block = np.empty(size, np.int64)
        for start in range(0, count, _CHUNK):
            rows = min(_CHUNK, count - start)
            ns = np.add(steps[:rows], (1 << m) + 1 + 2 * start, out=block[:rows])
            values = _chunk_values(ns, self._checked, work)
            for k, v in enumerate(values):
                top = float(v.min() if minimize[k] else v.max())
                if math.isnan(top):  # min and max propagate nan
                    target, s = self.panels[k]
                    raise ValueError(f"{target} at s = {s} is nan at grid "
                                     f"N = {ns[np.isnan(v)][0]}")
                if (best[k] is None
                        or (top <= best[k][0] if minimize[k] else top >= best[k][0])):
                    best[k] = (top, start + int(np.nonzero(v == top)[0][-1]))
            sink(float(1 << m) / ns, values)
        return [ScanResult(m, target, s, None, None, top, grid_point(m, i), i,
                           "min" if low else "max", bound)
                for (target, s), (top, i), low, bound
                in zip(self.panels, best, minimize, self._bounds)]


def scan_extremum(m: int, target: str, s: Optional[float] = None) -> ScanResult:
    """Scan one target over all 2^{m-1} grid points of order m, keeping
    the grid: the one-panel :class:`GridScan`, with the same reduction.

    For the energy form: minimum when 0 < s < 1, maximum when -1 < s < 0
    or s > 1; s = 0 and s = 1 are rejected (the target is identically 1).
    The log-kernel and offset targets are maximized.

    The order-m grid is the odd N in (2^m, 2^{m+1}), disjoint from every
    other order, so the extremum at order m alone need not be monotone in
    m (energy form, s = 1/3: 0.9489493 at m = 10, 0.9489503 at m = 11).
    The best extremum over orders <= m is monotone; see :class:`ScanResult`.
    """
    xs, values = [], []

    def keep(block_xs, block_values):
        xs.append(block_xs)
        values.append(block_values[0])

    (result,) = GridScan(m, [(target, s)]).run(keep)
    return replace(result, xs=np.concatenate(xs), values=np.concatenate(values))


def _best_extremum(m: int, target: str, s: Optional[float]) -> float:
    """The best scanned extremum over the grids of orders 1..m, each
    streamed without keeping its grid."""
    scans = [GridScan(m, [(target, s)])]  # checks m before any scan runs
    scans += [GridScan(k, [(target, s)]) for k in range(1, m)]
    results = [scan.run(lambda xs, values: None)[0] for scan in scans]
    pick = min if results[0].orientation == "min" else max
    return pick(r.extremum for r in results)


def interval_estimate(s: float, m: int) -> tuple[float, float]:
    """Estimated closed interval of limit points of the scaled energy
    sequence with parameter s, from the grid scans of orders <= m.

    One endpoint is known exactly (1 for the energy form, 0 for the s = 0
    and s = 1 targets); the other is the best scanned extremum over all
    orders <= m, which is the extremum over every integer in
    [2^m, 2^{m+1}) (see :class:`ScanResult`).  It never moves away from
    the constant as m grows, unlike the order-m extremum alone (s = 1/3:
    0.9489493 at order 10, 0.9489503 at order 11).  The scans of orders
    below m cost less than the order-m scan itself.
    """
    if finite_s(s) <= -1.0:
        raise ValueError("interval estimate needs s > -1")
    if s == 0.0:
        return (0.0, _best_extremum(m, "leja_offset", None))
    if s == 1.0:
        return (0.0, _best_extremum(m, "log_kernel_form", None))
    d = _best_extremum(m, "energy_form", s)
    return (d, 1.0) if 0.0 < s < 1.0 else (1.0, d)


def stationarity_residual(x, s: float) -> float:
    """Stationarity diagnostic: the energy form at x minus
    2 (2^s - 1)/(s + 1) times the power sum of the infinite expansion.

    At interior extrema of the energy form (in x, for fixed s > 0, s != 1)
    this residual vanishes; at x = 1 it reduces to 1 - 2/(s + 1) and is a
    boundary diagnostic only.  ValueError where the sums cannot reach
    1e-12 (small s, e.g. x = 0.7 at s = 0.005).
    """
    if finite_s(s) <= 0.0 or s == 1.0:
        raise ValueError("stationarity diagnostic needs s > 0, s != 1")
    w_inf = _weights_at(x, s, 1e-12, prefer_finite=False)
    try:
        g, h = arith.power_sum(w_inf, s), arith.energy_form(w_inf, s)
    except arith.TruncationError:
        raise ValueError(f"stationarity_residual(x = {x}, s = {s}, tol = 1e-12): tol "
                         "cannot be reached at this s, as the weights of 1/x stop at "
                         "binary place 1021") from None
    return h - 2.0 * math.expm1(s * _LOG2) / (s + 1.0) * g


def child_identities(m: int, s: float):
    """Both sides of the two parent-child grid identities linking order m
    to order m + 1, as arrays (lhs_odd, rhs_odd, lhs_even, rhs_even) over
    the grid indices n; each pair agrees to rounding error.

    The point x = 2^m/N, N = 2^m + 2n + 1, has the children 2^{m+1}/(2N + 1)
    (exponent m + 1 appended to 1/x) and 2^{m+1}/(2N - 1) (last exponent m
    replaced by m + 1); one walk of :func:`batch_eta_values` takes 2N - 1, 2N
    (with the weights and x of N) and 2N + 1.  m and s are checked as the scan does.
    """
    GridScan(m, [("energy_form", s)])  # checks m and s, runs nothing
    ns = (1 << m) + 1 + 2 * np.arange(1 << (m - 1), dtype=np.int64)
    rows = 2 * ns[:, None] + np.arange(-1, 2)  # 2N - 1, 2N, 2N + 1
    h_evn, h, h_odd = batch_eta_values(rows.ravel(), "energy_form", s).reshape(-1, 3).T
    xef, xf, xof = (float(2 << m) / rows).T

    pow_head = np.zeros(ns.size)  # the exponents k < m of 1/x
    for k in range(m):  # exponent k is bit m - k of N
        pow_head += 2.0 ** (-k * s) * ((ns >> (m - k)) & 1)
    pow_full = pow_head + 2.0 ** (-m * s)
    c = math.expm1(s * _LOG2)  # 2^s - 1

    rhs1 = ((1.0 - (xof / xf) ** (s + 1.0)) * h
            - xof ** (s + 1.0) * (2.0 ** (-(m + 1) * (s + 1.0))
                                  + c * 2.0 ** (-m) * pow_full))
    rhs2 = (((xf / xef) ** (s + 1.0) - 1.0) * h_evn
            + xf ** (s + 1.0) * ((2.0 ** (s + 1.0) - 1.0)
                                 * 2.0 ** (-(m + 1) * (s + 1.0))
                                 + c * 2.0 ** (-m) * pow_head))
    return h - h_odd, rhs1, h - h_evn, rhs2
