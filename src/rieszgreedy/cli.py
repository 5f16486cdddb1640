"""Command-line front end: every computation in the library, emitted as
CSV (UTF-8, header row) plus a JSON run manifest.  One row writer writes
every CSV: each float as ``'%.17g' % v``, byte for byte, by a numpy kernel
(:func:`_float_cells`, with ``%`` as its per-cell fallback), every other
value through ``str``.

Each command is one :data:`_COMMANDS` entry, its help text and its
runner.  A runner takes the parsed flags and the ``--out`` path and
returns (outputs, summary, passed); :func:`main` calls every runner at one
site, writes the manifest there and maps the result to the exit code.  A
command that writes one table declares its CSV header once, with
:func:`_table`, for the file and for the "CSV columns" of its ``--help``.

Exit codes: 0 success, 2 domain error (a flag value violates an
operation's precondition, takes a result beyond the float range
(OverflowError), or leaves the brute-force oracle no finite potential),
3 verification failure (passed is False: oracle-verify or identities
beyond tolerance), 64 usage error, 74 unwritable output.

Ranges: ``--range A:B`` (and ``energy --N``) is clamped below to the
command's smallest N (1 for energy, fseq and cesaro, 2 for tseq and
expansion-check); a range left with no N, reaching 2^53, or holding more
than :data:`MAX_RANGE` N is a domain error.  Every command computes as
arrays, one pass per command, and a verifier fails on a nan row.
Energies over any N < 2^53 run in O(bit-width) memory, and ``figures``
and ``scan`` stream the order-M grid in O(block) memory
(:class:`rieszgreedy.limits.GridScan`).  ``identities`` takes
1 <= M <= :data:`MAX_IDENTITY_ORDER` and the s of an energy-form
``scan``; ``oracle-verify --grid-bits`` goes up to
:data:`rieszgreedy.energy.ORACLE_MAX_GRID_BITS`.

Imports: start-up is most of a short command (``energy --range`` over
1024 N near 2^24 runs for about 10 ms of a 0.23 s process), so this
module imports no layer, and each runner imports what it calls when it
runs.  ``eta`` loads ``binary``; ``energy`` and ``oracle-verify`` load
``energy``, which brings ``special`` and ``binary``; ``scan``,
``figures`` and ``identities`` load ``limits``, which adds ``arith``;
``tseq``, ``fseq``, ``cesaro`` and ``expansion-check`` load every layer
through ``asymptotics``.  The layer functions perfbench/layertrace.py
patches here, which no runner calls, resolve through :data:`_TRACED`.

Flag values may start with '-': ``--s -inf`` and ``--range -3:0`` are
values, not options.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import re
import sys
import time
from contextlib import ExitStack
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__

USAGE_ERROR = 64
OUTPUT_ERROR = 74
DOMAIN_ERROR = 2
VERIFY_ERROR = 3

_SCAN_TARGETS = {"energy": "energy_form", "log-kernel": "log_kernel_form",
                 "offset": "leja_offset"}

#: Layer functions no runner calls, served by name because
#: perfbench/layertrace.py patches them on this module.
_TRACED = {"scan_extremum": "limits", "greedy_energy": "energy",
           "expansion_energy": "asymptotics", "t_sequence": "asymptotics"}

_FIGURES = (
    ("fig1_offset.csv", "leja_offset", None),
    ("fig2_energy_minus_half.csv", "energy_form", -0.5),
    ("fig3_energy_one_third.csv", "energy_form", 1.0 / 3.0),
    ("fig4_energy_seven_halves.csv", "energy_form", 3.5),
    ("fig5_log_kernel.csv", "log_kernel_form", None),
)

#: Rows per write: bounds the cells held, keeps them in cache.  Chunks of
#: 2^10, 2^11 and 2^12 rows gave ``panels`` wall_s medians of 1.28, 1.29
#: and 1.28 s (perfbench, seeds 7101-7103), inside the runs' spread.  At
#: 2^11 the temporaries of a figures chunk's fused call (12288 values,
#: 96 KB) stay below glibc's 128 KB mmap threshold: ``figures --M 20``
#: takes 13k minor page faults in :func:`_float_cells`, 31k at 2^12.
_CSV_CHUNK = 1 << 11
_PANEL_HEADER = "x,value"  # the CSV header of scan and of each figures file
_LOW32, _LOW64 = (1 << 32) - 1, (1 << 64) - 1
_STRIPPED = np.uint64(10_000)  # offset of the stripped digit groups
_COMMA, _NEWLINE = (np.array([[ord(c)]], np.uint8) for c in ",\n")

#: Most N one range command takes.  expansion-check, which holds the most
#: arrays over N, peaks at 177 MB over 2^20 N (610 MB over 2^22).
MAX_RANGE = 1 << 20
#: Highest identities order: caps the 2^M - 1 rows held as arrays (6.9 MB CSV at 16).
MAX_IDENTITY_ORDER = 16


def __getattr__(name):
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_TRACED[name]}", __package__), name)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64 and takes an
    argument starting with '-' and then a digit, '.', 'inf' or 'nan' as a
    value, where argparse itself only takes plain negative numbers (so
    ``--s -inf`` or ``--range -3:0`` would miss their value)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.I)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _range_ns(args, smallest: int) -> np.ndarray:
    """The integers of ``--range A:B`` (``energy --N A`` is the range A:A)
    from max(A, smallest) to B, as int64."""
    n = getattr(args, "N", None)
    text = args.n_range if n is None else f"{n}:{n}"
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise ValueError(f"range must look like A:B, got {text!r}")
    if max(lo, smallest) > hi:
        raise ValueError(f"empty range {lo}:{hi}: no N >= {smallest} in it")
    if hi >= 1 << 53:
        raise ValueError("range must end below 2^53")
    if hi - max(lo, smallest) >= MAX_RANGE:
        raise ValueError(f"range {lo}:{hi} holds more than {MAX_RANGE} N; "
                         f"split it into several runs")
    return np.arange(max(lo, smallest), hi + 1, dtype=np.int64)


@cache
def _float_tables() -> tuple:
    """The tables of :func:`_float_cells`, built on first use: the 4-digit
    groups 0000..9999 as little-endian ASCII words, plain and with trailing
    '0' as NUL; per biased binary exponent, kbase and thresh, whence the
    decimal exponent of mantissa m is kbase - (m < thresh) (99 outside the
    binades around [1e-11, 1e15)); per k = -11..14, the layout words (masks
    of the digits before the '.', the '.', the "0.000" prefix, the "e-XX"
    suffix); and 5^0..5^27."""
    i = np.arange(10_000, dtype=np.uint64)
    plain = stripped = np.zeros_like(i)
    for j in range(4):
        char = (i // 10 ** (3 - j) % 10 + ord("0")) << 8 * j
        plain = plain | char
        stripped = stripped | np.where(i % 10 ** (4 - j) != 0, char, 0)
    kbase = np.full(2048, 99, np.int64)
    thresh = np.zeros(2048, np.uint64)
    for e2 in range(-40, 51):  # binade [2^e2, 2^(e2+1)), mantissa m = v·2^(52-e2)
        j = math.floor(e2 * math.log10(2)) + 1  # 10^(j-1) <= 2^e2 < 10^j
        t = math.ceil(Fraction(10) ** j * 2 ** (52 - e2))  # least m with v >= 10^j
        kbase[e2 + 1023], thresh[e2 + 1023] = (j, t) if t < 1 << 53 else (j - 1, 0)
    layout = []
    for k in range(-11, 15):  # d.ddd (k >= 0), 0.000ddd (k >= -4), d.ddde-XX
        fixed0 = -4 <= k < 0
        front = (1 << 8 * k) - 1 if k >= 0 else (1 << 128) - 1 if fixed0 else 0
        dot = 0 if fixed0 else ord(".") << 8 * max(k, 0)
        prefix = b"\0" + b"0." + b"0" * (-k - 1) if fixed0 else b""
        suffix = b"\0e-" + b"%02d" % -k if k < -4 else b""
        layout.append([front & _LOW64, front >> 64, dot & _LOW64, dot >> 64,
                       *(int.from_bytes(b, "little") for b in (prefix, suffix))])
    return (np.concatenate([plain, stripped]), kbase, thresh,
            np.array(layout, np.uint64).T.copy(),
            np.uint64(5) ** np.arange(28, dtype=np.uint64))


def _float_cells(values: np.ndarray) -> np.ndarray:
    """Each value as ``'%.17g' % value``, byte for byte, in a row of a
    NUL-padded (n, 32) uint8 matrix.

    The fast path takes finite |v| in [1e-11, 1e15), decimal exponents
    k = -11..14.  From the bits v = m·2^q it forms the 17 digits
    D = round-half-even(m·5^(16-k)·2^(q+16-k)) exactly: a 128-bit product
    in 32-bit limbs, shifted right by 1..63 bits.  D is a lead digit and
    four 4-digit groups, looked up as ASCII words (``take``, which skips
    the cast and check fancy indexing makes of each uint64 index); a group
    followed by zeros only takes its stripped form, which drops %g's
    trailing zeros.
    Per-k masks and shifts place the words, with NUL between the parts.
    Every other value, and every whole number (whose integer zeros the
    strip would drop), is formatted by ``%`` and spliced into its row.
    """
    groups, kbase, thresh, layout, pow5 = _float_tables()
    values = np.ascontiguousarray(values, np.float64)
    bits = values.view(np.uint64)
    ef = (bits >> 52 & 0x7FF).view(np.int64)
    m = bits & (1 << 52) - 1 | 1 << 52
    k = kbase[ef] - (m < thresh[ef])
    shift = 1059 + k - ef  # -(q + 16 - k)
    fast = (k >= -11) & (k <= 14) & (shift >= 1) & (shift <= 63)
    k = np.where(fast, k, 0)
    shift = shift.view(np.uint64)
    f = pow5[16 - k]
    ml, mh, fl, fh = m & _LOW32, m >> 32, f & _LOW32, f >> 32
    ll, lh, hl = ml * fl, ml * fh, mh * fl
    mid = (ll >> 32) + (lh & _LOW32) + (hl & _LOW32)
    lo = ll & _LOW32 | mid << 32
    hi = mh * fh + (lh >> 32) + (hl >> 32) + (mid >> 32)
    d = hi << 64 - shift | lo >> shift
    below = (np.uint64(1) << shift) - 1  # the bits shifted out
    d += ((lo & below) + (below >> 1) + (d & 1)) >> shift  # half to even
    lead = d // 10 ** 16
    hi8 = (d - lead * 10 ** 16) // 10 ** 8
    lo8 = d - lead * 10 ** 16 - hi8 * 10 ** 8
    g1, g3 = hi8 // 10 ** 4, lo8 // 10 ** 4
    g2, g4 = hi8 - g1 * 10 ** 4, lo8 - g3 * 10 ** 4
    y = (groups.take(g1 + _STRIPPED * ((g2 | lo8) == 0))  # digits 2..9
         | groups.take(g2 + _STRIPPED * (lo8 == 0)) << 32)
    z = groups.take(g3 + _STRIPPED * (g4 == 0)) | groups.take(g4 + _STRIPPED) << 32  # 10..17
    front0, front1, dot0, dot1, prefix, suffix = np.take(layout, k + 11, axis=1)
    back0, back1 = y & ~front0, z & ~front1  # the digits after the '.'
    frac = (back0 | back1) != 0
    fast &= (k < 0) | frac
    words = np.empty((values.size, 4), "<u8")
    words[:, 0] = (bits >> 63) * ord("-") | prefix | (lead + ord("0")) << 48
    words[:, 1] = y & front0 | dot0 * frac | back0 << 8
    words[:, 2] = z & front1 | dot1 * frac | back1 << 8 | back0 >> 56
    words[:, 3] = back1 >> 56 | suffix
    cells = words.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells[slow] = 0
        cells[slow, :24] = np.array(["%.17g" % v for v in values[slow].tolist()],
                                    "S24").view(np.uint8).reshape(-1, 24)
    return cells


def _float_columns(columns: list) -> list:
    """The cell matrices of equal-length float columns, from one
    :func:`_float_cells` call over all of them."""
    return np.split(_float_cells(np.concatenate(columns)), len(columns))


def _int_cells(values: np.ndarray) -> np.ndarray:
    """Each int64 value >= 0 as ``str(value)``, byte for byte, in a row of
    a uint8 matrix as wide as the largest, NUL in place of leading zeros."""
    powers = 10 ** np.arange(len(str(int(values.max()))) - 1, -1, -1, dtype=np.int64)
    lead = values[:, None] >= powers
    lead[:, -1] = True  # the units digit, also of 0
    return np.where(lead, values[:, None] // powers % 10 + ord("0"), 0).astype(np.uint8)


def _column_cells(part) -> np.ndarray:
    """One column's chunk, other than a float array, as a NUL-padded uint8
    cell matrix, one row per value: int arrays without a negative value
    through :func:`_int_cells`, every other value through ``str``, floats
    among them (in a list or a constant column) as ``%.17g``.  Float
    arrays take :func:`_float_columns`, once per chunk for all of them."""
    if isinstance(part, np.ndarray) and part.dtype.kind == "i" and part.size:
        if part.min() >= 0:  # negative values take str
            return _int_cells(part.astype(np.int64, copy=False))
    if isinstance(part, np.ndarray):
        part = part.tolist()  # numpy scalars become Python's
    text = np.array(["%.17g" % v if isinstance(v, float) else str(v)
                     for v in part], "S")
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _csv_rows(cells: list, rows: int) -> bytes:
    """``rows`` CSV rows from each column's cell matrix (a one-row matrix
    is a constant column): cells, ',' between them and '\\n' after the
    last, with the NUL padding dropped."""
    seps = [_COMMA] * (len(cells) - 1) + [_NEWLINE]
    return np.hstack([np.broadcast_to(a, (rows, a.shape[1]))
                      for cell, sep in zip(cells, seps) for a in (cell, sep)]
                     ).tobytes().translate(None, b"\0")


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write the header line, then equal-length columns (sequences or numpy
    arrays, or a single int or float for a constant column) as CSV rows:
    floats as ``%.17g``, every other value through ``str``.  Per chunk,
    the float-array columns are formatted together, by
    :func:`_float_columns`, and every other column by
    :func:`_column_cells`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    sized = [c for c in columns if not isinstance(c, (int, float))]
    count = len(sized[0]) if sized else 0
    fused = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, count, _CSV_CHUNK):
            rows = min(_CSV_CHUNK, count - start)
            parts = [[c] if isinstance(c, (int, float)) else c[start:start + rows]
                     for c in columns]
            floats = iter(_float_columns([p for p, f in zip(parts, fused) if f])
                          if any(fused) else ())
            fh.write(_csv_rows([next(floats) if f else _column_cells(p)
                                for p, f in zip(parts, fused)], rows))


def _write_panels(paths: list, m: int, panels) -> list:
    """Scan the order-m grid once for every (target, s) panel and write
    panel k as :data:`_PANEL_HEADER` CSV to ``paths[k]``, block by block.
    Each CSV chunk formats its x column and every panel's values in one
    :func:`_float_columns` call and has one row matrix for all files: its x
    cells, ',' and '\n' are laid once, and each file overwrites only the
    value cells before its NUL padding is dropped, which gives the bytes
    of :func:`_csv_rows`.  Nothing is opened before the panels are checked,
    and every file is closed on every path.  Returns each panel's
    :class:`~rieszgreedy.limits.ScanResult` (without the grid arrays)."""
    from .limits import GridScan
    scan = GridScan(m, panels)
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "wb")) for p in paths]
        for fh in files:
            fh.write(_PANEL_HEADER.encode() + b"\n")

        def write_block(xs, values):
            for start in range(0, xs.size, _CSV_CHUNK):
                part = slice(start, start + _CSV_CHUNK)
                x, *cells = _float_columns([xs[part], *(v[part] for v in values)])
                width = x.shape[1]  # every float cell matrix is as wide
                row = np.empty((len(x), 2 * width + 2), np.uint8)
                row[:, :width], row[:, -1:] = x, _NEWLINE
                row[:, width:width + 1] = _COMMA
                for fh, cell in zip(files, cells):
                    row[:, width + 1:-1] = cell
                    fh.write(row.tobytes().translate(None, b"\0"))

        return scan.run(write_block)


def _write_manifest(path: Path, command: str, params: dict, outputs: list,
                    summary: dict, status: str, started: float) -> None:
    doc = {"command": command, "parameters": params, "version": __version__,
           "wall_time_seconds": time.perf_counter() - started,
           "outputs": [str(p) for p in outputs], "summary": summary,
           "status": status}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _table(header: str):
    """Make a runner of a command body that returns (columns, summary,
    passed): the runner writes the columns to its output path as CSV
    headed by ``header``, which its ``--help`` also lists."""
    def wrap(body):
        def runner(args, out: Path):
            columns, summary, passed = body(args)
            _write_csv(out, header, *columns)
            return [out], summary, passed
        runner.header = header
        return runner
    return wrap


@_table("k,exponent,numerator,denominator,weight")
def _run_eta(args):
    from .binary import binary_weights, decompose
    n = args.N
    w = binary_weights(n)
    exps = decompose(n)
    rows = [(k + 1, e, t.numerator, t.denominator, float(t))
            for k, (e, t) in enumerate(zip(exps, w.components))]
    return zip(*rows), {"N": n, "bit_count": len(exps)}, True


@_table("N,s,energy")
def _run_energy(args):
    from .energy import greedy_energies
    if (args.N is None) == (args.n_range is None):
        raise ValueError("give exactly one of --N or --range")
    ns = _range_ns(args, 1)
    return (ns, args.s, greedy_energies(ns, args.s)), {"count": ns.size}, True


@_table("N,s,energy,T")
def _run_tseq(args):
    from .asymptotics import t_from_energies
    from .energy import greedy_energies
    ns = _range_ns(args, 2)
    energies = greedy_energies(ns, args.s)
    values = t_from_energies(ns, energies, args.s)
    return (ns, args.s, energies, values), {
        "count": ns.size, "min_T": float(values.min()),
        "max_T": float(values.max())}, True


@_table("N,s,potential,F")
def _run_fseq(args):
    from .asymptotics import f_from_potentials
    from .energy import extremal_potentials
    ns = _range_ns(args, 1)
    potentials = extremal_potentials(ns, args.s)
    values = f_from_potentials(ns, potentials, args.s)
    return (ns, args.s, potentials, values), {
        "count": ns.size, "min_F": float(values.min()),
        "max_F": float(values.max())}, True


def _scan_summary(result) -> dict:
    summary = {"target": result.target, "s": result.s,
               "orientation": result.orientation, "extremum": result.extremum,
               "arg_x": f"{result.arg.numerator}/{result.arg.denominator}",
               "arg_x_float": float(result.arg)}
    if result.error_bound is not None:
        summary["error_bound"] = result.error_bound
    return summary


def _run_scan(args, out: Path):
    (result,) = _write_panels([out], args.M, [(_SCAN_TARGETS[args.target], args.s)])
    return [out], {"M": args.M, **_scan_summary(result)}, True


def _run_figures(args, out_dir: Path):
    outputs = [out_dir / name for name, _, _ in _FIGURES]
    results = _write_panels(outputs, args.M, [(t, s) for _, t, s in _FIGURES])
    panels = {path.name: _scan_summary(r) for path, r in zip(outputs, results)}
    return outputs, {"M": args.M, "panels": panels}, True


_run_scan.header = _PANEL_HEADER
_run_figures.header = _PANEL_HEADER + " (per file)"


@_table("N,s,exact,predicted,residual")
def _run_expansion_check(args):
    from .asymptotics import expansion_energies
    from .energy import greedy_energies
    ns = _range_ns(args, 2)
    exact = greedy_energies(ns, args.s)
    predicted = expansion_energies(ns, args.s)
    residual = exact - predicted
    worst = np.abs(residual) / np.maximum(1.0, np.abs(exact))
    return (ns, args.s, exact, predicted, residual), {
        "count": ns.size, "max_rel_residual": float(worst.max())}, True


@_table("N,s,mean,deviation,scaled_deviation")
def _run_cesaro(args):
    from .asymptotics import cesaro_means, cesaro_scales
    from .special import arclength_energy
    ns = _range_ns(args, 1)
    means = cesaro_means(ns, args.s)
    target = arclength_energy(args.s) / 2.0
    deviations = means - target
    scaled = deviations * cesaro_scales(ns, args.s)
    return (ns, args.s, means, deviations, scaled), {
        "count": ns.size, "limit": target,
        "max_abs_scaled_deviation": float(np.abs(scaled).max())}, True


@_table("N,s,oracle_energy,formula_energy,rel_gap")
def _run_oracle_verify(args):
    from .energy import greedy_energies, greedy_oracle, prefix_energies
    try:
        config, _ = greedy_oracle(args.N, args.s, grid_bits=args.grid_bits)
    except RuntimeError as exc:  # no finite potential left on the grid
        raise ValueError(f"the brute-force oracle failed at s = {args.s}: "
                         f"{exc}") from exc
    ns = np.arange(2, args.N + 1)
    oracle = np.array(prefix_energies(config, args.s)[1:])
    formula = greedy_energies(ns, args.s)
    gaps = np.abs(oracle - formula) / np.maximum(1.0, np.abs(formula))
    worst = float(gaps.max())
    return ((ns, args.s, oracle, formula, gaps),
            {"max_rel_gap": worst, "tol": args.tol}, worst <= args.tol)


@_table("M,n,s,lhs_odd,rhs_odd,lhs_even,rhs_even")
def _run_identities(args):
    from .limits import child_identities
    if not 1 <= args.M <= MAX_IDENTITY_ORDER:
        raise ValueError(f"order M = {args.M} is below 1 or exceeds "
                         f"{MAX_IDENTITY_ORDER}")
    orders = range(1, args.M + 1)
    sides = [np.concatenate(column) for column in
             zip(*(child_identities(m, args.s) for m in orders))]
    ms = np.repeat(orders, [1 << (m - 1) for m in orders])
    ns = np.concatenate([np.arange(1 << (m - 1)) for m in orders])
    worst = float(np.abs([sides[0] - sides[1], sides[2] - sides[3]]).max())
    return ((ms, ns, args.s, *sides),
            {"max_mismatch": worst, "tol": args.tol}, worst <= args.tol)


#: Every command: its help text and its runner, in ``--help`` order.
_COMMANDS = {
    "eta": ("Normalized binary weight vector of one integer.", _run_eta),
    "energy": ("Closed-form greedy energy over a range of sizes.", _run_energy),
    "tseq": ("Translated and scaled energy sequence.", _run_tseq),
    "fseq": ("Translated and scaled extremal-potential sequence.", _run_fseq),
    "scan": ("Exhaustive dyadic-grid scan of one limit function.", _run_scan),
    "figures": ("Emit the five published scan panels as CSV files.", _run_figures),
    "expansion-check": ("Exact energy against the multi-term expansion.",
                        _run_expansion_check),
    "cesaro": ("Cesaro means of extremal-potential deviations.", _run_cesaro),
    "oracle-verify": ("Brute-force greedy construction vs closed form.",
                      _run_oracle_verify),
    "identities": ("Parent-child grid identities up to order M.", _run_identities),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="rieszgreedy",
                     description="Greedy Riesz-energy computations on the "
                                 "unit circle")
    sub = parser.add_subparsers(dest="command", metavar="command")
    cmd = {}
    for name, (help_text, runner) in _COMMANDS.items():
        columns = runner.header.replace(",", ", ")
        p = cmd[name] = sub.add_parser(
            name, help=help_text, description=f"{help_text}  CSV columns: {columns}")
        p.add_argument("--out", type=Path, default=None,
                       help="output CSV path (figures: output directory)")
        # no effect; kept because perfbench/workloads._read_manifest fails
        # every benchmark check whose manifest lacks parameters.jobs == 1
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; has no effect")

    cmd["eta"].add_argument("--N", type=int, required=True)
    p = cmd["energy"]
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--N", type=int)
    p.add_argument("--range", dest="n_range", type=str)
    for name in ("tseq", "fseq", "expansion-check", "cesaro"):
        cmd[name].add_argument("--s", type=float, required=True)
        cmd[name].add_argument("--range", dest="n_range", type=str, required=True)
    p = cmd["scan"]
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--target", choices=sorted(_SCAN_TARGETS), default="energy")
    p.add_argument("--s", type=float, default=None)
    cmd["figures"].add_argument("--M", type=int, default=16)
    p = cmd["oracle-verify"]
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--grid-bits", type=int, default=20)
    p = cmd["identities"]
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR

    started = time.perf_counter()
    params = {k: (str(v) if isinstance(v, Path) else v)
              for k, v in vars(args).items() if k != "command"}
    command = args.command
    _, runner = _COMMANDS[command]
    directory = command == "figures"  # writes its files into --out

    try:
        if not 0.0 <= getattr(args, "tol", 0.0) < math.inf:  # no result could pass
            raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
        out = args.out or Path("figures" if directory else f"{command}.csv")
        manifest = (out / "manifest.json" if directory
                    else out.with_name(out.name + ".manifest.json"))
        outputs, summary, passed = runner(args, out)
        _write_manifest(manifest, command, params, outputs, summary,
                        "ok" if passed else "verification-failed", started)
    except OSError as exc:
        print(f"{command}: cannot write output: {exc}", file=sys.stderr)
        return OUTPUT_ERROR
    except (ValueError, OverflowError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    if not passed:
        print(f"{command}: verification failed: {summary}", file=sys.stderr)
        return VERIFY_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
