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
than :data:`MAX_RANGE` N is a domain error.  Each CSV goes, in blocks of
:data:`_RANGE_BLOCK` N or of the order-M grid
(:class:`rieszgreedy.limits.GridScan`), through one row writer
(:func:`_csv_files`), so memory is O(block), and appears only when
complete.  A verifier fails on a nan row.  ``identities`` takes
1 <= M <= :data:`MAX_IDENTITY_ORDER` and the s of an energy-form
``scan``; ``oracle-verify --grid-bits`` goes up to
:data:`rieszgreedy.energy.ORACLE_MAX_GRID_BITS`.

Imports: start-up is most of a short command (``energy --range`` over
1024 N near 2^24 runs for about 10 ms of a 0.23 s process), so this
module imports no layer, and each runner imports what it calls when it
runs.  ``eta`` loads ``binary``; ``energy`` and ``oracle-verify`` load
``energy``, which brings ``special`` and ``binary``; ``scan`` and
``figures`` load ``limits``, which brings ``arith``, ``binary`` and
``special``; ``identities`` loads ``limits`` and ``energy``; ``tseq``,
``fseq``, ``cesaro`` and ``expansion-check`` load every layer through
``asymptotics``.  The layer functions perfbench/layertrace.py
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
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Optional

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

#: Rows per write: bounds the cells held, keeps them in cache.  Each
#: writer makes the work arrays of :func:`_float_cells` once per call
#: (12288 values a figures chunk), so a chunk makes one new array, its
#: cells: ``figures --M 20`` takes about 2k minor page faults in
#: :func:`_float_cells`, 13.9k with temporaries made per chunk.  With the
#: work reused, a ``figures --M 20`` process ran 1% faster at 2^12 rows
#: (17.1k faults in all, 12.8k at 2^11) and 3.5% slower at 2^13, medians
#: of 12 pairs on one CPU.
_CSV_CHUNK = 1 << 11
_PANEL_HEADER = "x,value"  # the CSV header of scan and of each figures file
_LOW32, _LOW64 = (1 << 32) - 1, (1 << 64) - 1
_STRIPPED = np.uint64(10_000)  # offset of the stripped digit groups

#: Most N one range command takes: bounds its run time (about 1-3 s over
#: 2^20 N), as its memory is that of one block of :data:`_RANGE_BLOCK` N.
MAX_RANGE = 1 << 20
_RANGE_BLOCK = 1 << 15
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


def _range_ns(args, smallest: int):
    """The integers of ``--range A:B`` or, for ``energy``, of ``--N A`` (not
    both) from max(A, smallest) to B: checked here, yielded in int64 blocks."""
    n = getattr(args, "N", None)
    if (n is None) == (args.n_range is None):
        raise ValueError("give exactly one of --N or --range")
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
    return (np.arange(a, min(a + _RANGE_BLOCK, hi + 1), dtype=np.int64)
            for a in range(max(lo, smallest), hi + 1, _RANGE_BLOCK))


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


def _cell_work(size: int) -> tuple:
    """The work arrays of :func:`_float_columns` and :func:`_float_cells`
    for up to ``size`` values: a float row for the joined columns, then
    the kernel's 12 uint64 rows, its 6 layout words per value and 3 bool
    rows."""
    return (np.empty(size), np.empty((12, size), np.uint64),
            np.empty(6 * size, np.uint64), np.empty((3, size), bool))


def _float_cells(values: np.ndarray, work: Optional[tuple] = None) -> np.ndarray:
    """Each value as ``'%.17g' % value``, byte for byte, in a row of a new
    NUL-padded uint8 matrix: a column view of the (n, 32) cells, which
    keeps only the byte columns some value can fill.

    The fast path takes finite |v| in [1e-11, 1e15), decimal exponents
    k = -11..14.  From the bits v = m·2^q it forms the 17 digits
    D = round-half-even(m·5^(16-k)·2^(q+16-k)) exactly: a 128-bit product
    in 32-bit limbs, shifted right by 1..63 bits.  D is a lead digit and
    four 4-digit groups, looked up as ASCII words (``take``, on int64
    indices, which it neither casts nor, in ``clip`` mode, copies its
    output for; every index is in range); a group followed by zeros only
    takes its stripped form, which drops %g's trailing zeros.
    Per-k masks and shifts place the words, with NUL between the parts.
    Every other value, and every whole number (whose integer zeros the
    strip would drop), is formatted by ``%`` and spliced into its row.

    Every step but the cells writes through ``out=`` into the leading n
    elements of ``work`` (:func:`_cell_work`, made here if not given), so
    a writer that passes one ``work`` to every chunk makes one array per
    chunk, the cells.

    Byte 0 holds a '-', 1..5 the "0.000" prefix (k = -4..-1), 6 the lead
    digit, 24 the last digit after a '.' (k >= 0 or k < -4) and 25..28
    the "e-XX" suffix (k < -4).  So the view starts at column 0 if a value
    is negative, else at 1 if some k may lie in -4..-1, else at 6, and
    ends before 29 if some k < -4, else before 25 if some k >= 0, else
    before 24; a call with a ``%`` cell keeps all 32.  The figures panels
    (x in (1/2, 1), values near 1) keep 24 columns in 254 of 256 chunks.
    """
    groups, kbase, thresh, layout, pow5 = _float_tables()
    values = np.ascontiguousarray(values, np.float64)
    n = values.size
    _, rows, layout_words, flags = work or _cell_work(n)
    ef, m, k, shift, f, mh, fh, lead, sign, t, u, v = rows[:, :n]
    fast, frac, flag = flags[:, :n]
    bits = values.view(np.uint64)
    ef, k = ef.view(np.int64), k.view(np.int64)
    np.right_shift(bits, 52, out=ef)
    ef &= 0x7FF
    np.bitwise_and(bits, (1 << 52) - 1, out=m)
    m |= 1 << 52
    kbase.take(ef, out=k, mode="clip")
    k -= np.less(m, thresh.take(ef, out=t, mode="clip"), out=flag)
    shift = np.subtract(k, ef, out=shift.view(np.int64))
    shift += 1059  # -(q + 16 - k)
    np.greater_equal(k, -11, out=fast)
    fast &= np.less_equal(k, 14, out=flag)
    fast &= np.greater_equal(shift, 1, out=flag)
    fast &= np.less_equal(shift, 63, out=flag)
    k *= fast  # 0 off the fast path
    shift = shift.view(np.uint64)
    pow5.take(np.subtract(16, k, out=ef), out=f, mode="clip")
    # m·f = hi·2^64 + lo from the limbs ll = ml·fl, lh = ml·fh, hl = mh·fl, mh·fh
    np.right_shift(m, 32, out=mh)
    m &= _LOW32
    np.right_shift(f, 32, out=fh)
    f &= _LOW32
    lh, hl = np.multiply(m, fh, out=t), np.multiply(mh, f, out=u)
    lo = np.multiply(m, f, out=m)  # ll
    mid = np.right_shift(lo, 32, out=f)
    mid += np.bitwise_and(lh, _LOW32, out=v)
    mid += np.bitwise_and(hl, _LOW32, out=v)
    lo &= _LOW32
    lo |= np.left_shift(mid, 32, out=v)
    hi = mh
    hi *= fh
    hi += np.right_shift(lh, 32, out=v)
    hi += np.right_shift(hl, 32, out=v)
    hi += np.right_shift(mid, 32, out=v)
    # d = hi << 64 - shift | lo >> shift, rounded half to even
    hi <<= np.subtract(64, shift, out=t)
    d = np.right_shift(lo, shift, out=fh)
    d |= hi
    below = np.left_shift(np.uint64(1), shift, out=t)
    below -= 1  # the bits shifted out
    lo &= below
    lo += np.right_shift(below, 1, out=u)
    lo += np.bitwise_and(d, 1, out=u)
    lo >>= shift
    d += lo
    np.floor_divide(d, 10 ** 16, out=lead)
    d -= np.multiply(lead, 10 ** 16, out=t)
    hi8 = np.floor_divide(d, 10 ** 8, out=mh)
    lo8 = d
    lo8 -= np.multiply(hi8, 10 ** 8, out=t)
    g1, g3 = np.floor_divide(hi8, 10 ** 4, out=m), np.floor_divide(lo8, 10 ** 4, out=f)
    g2 = hi8
    g2 -= np.multiply(g1, 10 ** 4, out=t)
    g4 = np.subtract(lo8, np.multiply(g3, 10 ** 4, out=t), out=shift)

    def word(group, stripped, out):
        """The ASCII word of each 4-digit group, stripped where ``stripped``."""
        index = np.multiply(stripped, _STRIPPED, out=v)
        index += group
        return groups.take(index.view(np.int64), out=out, mode="clip")

    y = word(g1, np.equal(np.bitwise_or(g2, lo8, out=t), 0, out=flag), u)  # digits 2..9
    y |= np.left_shift(word(g2, np.equal(lo8, 0, out=flag), t), 32, out=t)
    z = word(g3, np.equal(g4, 0, out=flag), ef.view(np.uint64))  # digits 10..17
    g4 += _STRIPPED
    z |= np.left_shift(groups.take(g4.view(np.int64), out=t, mode="clip"), 32, out=t)
    front0, front1, dot0, dot1, prefix, suffix = layout.take(
        np.add(k, 11, out=shift.view(np.int64)), axis=1,
        out=layout_words[:6 * n].reshape(6, n), mode="clip")
    back0 = np.bitwise_and(y, np.invert(front0, out=t), out=m)  # the digits after the '.'
    back1 = np.bitwise_and(z, np.invert(front1, out=t), out=f)
    np.not_equal(np.bitwise_or(back0, back1, out=t), 0, out=frac)
    fast &= np.logical_or(np.less(k, 0, out=flag), frac, out=flag)
    words = np.empty((n, 4), "<u8")
    np.right_shift(bits, 63, out=sign)
    np.multiply(sign, ord("-"), out=t)
    t |= prefix
    lead += ord("0")
    np.bitwise_or(t, np.left_shift(lead, 48, out=lead), out=words[:, 0])
    np.bitwise_and(y, front0, out=t)
    t |= np.multiply(dot0, frac, out=v)
    np.bitwise_or(t, np.left_shift(back0, 8, out=v), out=words[:, 1])
    np.bitwise_and(z, front1, out=t)
    t |= np.multiply(dot1, frac, out=v)
    t |= np.left_shift(back1, 8, out=v)
    np.bitwise_or(t, np.right_shift(back0, 56, out=v), out=words[:, 2])
    np.bitwise_or(np.right_shift(back1, 56, out=v), suffix, out=words[:, 3])
    cells = words.view(np.uint8)
    slow = np.flatnonzero(np.logical_not(fast, out=flag))
    if slow.size:
        cells[slow] = 0
        cells[slow, :24] = np.array(["%.17g" % x for x in values[slow].tolist()],
                                    "S24").view(np.uint8).reshape(-1, 24)
        return cells
    low, high = (int(k.min()), int(k.max())) if n else (0, 0)
    first = 0 if sign.any() else 1 if low < 0 and high >= -4 else 6
    return cells[:, first:29 if low < -4 else 25 if high >= 0 else 24]


def _float_columns(columns: list, work: tuple) -> list:
    """The cell matrices of equal-length float columns, as row slices of
    one :func:`_float_cells` call over all of them, so all are as wide;
    the columns are joined in the first row of ``work`` (:func:`_cell_work`)."""
    n = len(columns[0])
    joined = np.concatenate(columns, out=work[0][:n * len(columns)])
    cells = _float_cells(joined, work)
    return [cells[i * n:(i + 1) * n] for i in range(len(columns))]


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


def _csv_rows(cells: list, rows: int) -> np.ndarray:
    """The uint8 matrix of ``rows`` CSV rows from each column's cell matrix
    (a one-row matrix is a constant column): cells, ',' between them and
    '\\n' after the last, the NUL padding still in."""
    row = np.empty((rows, sum(cell.shape[1] + 1 for cell in cells)), np.uint8)
    end = 0
    for cell in cells:  # slice assignment broadcasts a constant column
        row[:, end:end + cell.shape[1]] = cell
        end += cell.shape[1] + 1
        row[:, end - 1] = ord(",")
    row[:, -1] = ord("\n")
    return row


@contextmanager
def _csv_files(paths: list, header: str):
    """Open each path as ``<path>.part`` with the header line and yield
    ``write(columns)``: a block of equal-length columns (sequences, arrays,
    or an int or float for a constant column), the last len(paths) one per
    file.  Per :data:`_CSV_CHUNK` rows, the float arrays take one
    :func:`_float_columns` call, the row matrix is laid once, and each
    file overwrites only its own value cells in it.  Parts are renamed
    onto their paths at the end; on any error every file made is removed."""
    def write(columns):
        count = next((len(c) for c in columns if not isinstance(c, (int, float))), 0)
        fused = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
        shared = len(columns) - len(files)
        for start in range(0, count, _CSV_CHUNK):
            rows = min(_CSV_CHUNK, count - start)
            parts = [[c] if isinstance(c, (int, float)) else c[start:start + rows]
                     for c in columns]
            floats = iter(_float_columns([p for p, f in zip(parts, fused) if f], work)
                          if any(fused) else ())
            cells = [next(floats) if f else _column_cells(p)
                     for p, f in zip(parts, fused)]
            row = _csv_rows(cells[:shared + 1], rows)
            for fh, cell in zip(files, cells[shared:]):
                row[:, -1 - cell.shape[1]:-1] = cell
                fh.write(row.tobytes().translate(None, b"\0"))

    made, files = [], []
    try:
        with ExitStack() as stack:
            for path in paths:
                path.parent.mkdir(parents=True, exist_ok=True)
                part = path.with_name(path.name + ".part")
                files.append(stack.enter_context(open(part, "wb")))
                made.append(part)
                files[-1].write(header.encode() + b"\n")
            work = _cell_work(_CSV_CHUNK * (header.count(",") + len(paths)))
            yield write
        for i, path in enumerate(paths):
            made[i] = made[i].replace(path)
    except BaseException:
        for path in made:
            path.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: str, blocks) -> None:
    """Write the header, then each block of columns, by :func:`_csv_files`."""
    with _csv_files([path], header) as write:
        for columns in blocks:
            write(columns)


def _write_panels(paths: list, m: int, panels) -> list:
    """Scan the order-m grid once for every (target, s) panel and write
    panel k as :data:`_PANEL_HEADER` CSV to ``paths[k]``: each grid block
    is a block of :func:`_csv_files`, x and then one value column per file.
    Nothing is opened before the panels are checked.  Returns each panel's
    :class:`~rieszgreedy.limits.ScanResult` (without the grid arrays)."""
    from .limits import GridScan
    scan = GridScan(m, panels)
    with _csv_files(paths, _PANEL_HEADER) as write:
        return scan.run(lambda xs, values: write([xs, *values]))


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


def _table(header: str, smallest: Optional[int] = None):
    """Make a runner of a command body that returns (columns, summary,
    passed): the runner writes the columns to its output path as CSV
    headed by ``header``, which its ``--help`` also lists.  A range body
    (``smallest`` given) gets ``(args, ns)`` per block of :func:`_range_ns`
    and returns (columns, summary), whose min_/max_ entries are folded."""
    def wrap(body):
        def runner(args, out: Path):
            if smallest is None:
                columns, summary, passed = body(args)
                _write_csv(out, header, [columns])
                return [out], summary, passed
            blocks, summary = _range_ns(args, smallest), {"count": 0}

            def rows():
                for ns in blocks:
                    columns, block = body(args, ns)
                    summary["count"] += ns.size
                    for key, value in block.items():
                        fold = {"min_": np.minimum, "max_": np.maximum}.get(key[:4])
                        summary[key] = (float(fold(summary.get(key, value), value))
                                        if fold else value)
                    yield (ns, args.s, *columns)
            _write_csv(out, header, rows())
            return [out], summary, True
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
    return tuple(zip(*rows)), {"N": n, "bit_count": len(exps)}, True


@_table("N,s,energy", 1)
def _run_energy(args, ns):
    from .energy import greedy_energies
    return (greedy_energies(ns, args.s),), {}


@_table("N,s,energy,T", 2)
def _run_tseq(args, ns):
    from .asymptotics import t_from_energies
    from .energy import greedy_energies
    energies = greedy_energies(ns, args.s)
    values = t_from_energies(ns, energies, args.s)
    return (energies, values), {"min_T": float(values.min()),
                                "max_T": float(values.max())}


@_table("N,s,potential,F", 1)
def _run_fseq(args, ns):
    from .asymptotics import f_from_potentials
    from .energy import extremal_potentials
    potentials = extremal_potentials(ns, args.s)
    values = f_from_potentials(ns, potentials, args.s)
    return (potentials, values), {"min_F": float(values.min()),
                                  "max_F": float(values.max())}


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


@_table("N,s,exact,predicted,residual", 2)
def _run_expansion_check(args, ns):
    from .asymptotics import expansion_energies
    from .energy import greedy_energies
    exact = greedy_energies(ns, args.s)
    predicted = expansion_energies(ns, args.s)
    residual = exact - predicted
    worst = np.abs(residual) / np.maximum(1.0, np.abs(exact))
    return (exact, predicted, residual), {"max_rel_residual": float(worst.max())}


@_table("N,s,mean,deviation,scaled_deviation", 1)
def _run_cesaro(args, ns):
    from .asymptotics import cesaro_means, cesaro_scales
    from .special import arclength_energy
    means = cesaro_means(ns, args.s)
    target = arclength_energy(args.s) / 2.0
    deviations = means - target
    scaled = deviations * cesaro_scales(ns, args.s)
    return (means, deviations, scaled), {
        "limit": target, "max_abs_scaled_deviation": float(np.abs(scaled).max())}


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
