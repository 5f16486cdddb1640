"""Command-line front end: every computation in the library, emitted as
CSV (UTF-8, header row) plus a JSON run manifest.  One row writer writes
every CSV: each float as ``'%.17g' % v``, byte for byte, by numpy kernels
(:func:`_float_cells`, whose fast path takes most values and whose second
pass, :func:`_wide_cells`, every other finite one; ``%`` formats only nan,
inf and -inf), every other value through ``str``.

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

Imports: start-up is most of a short command.  One ``energy --range``
process over 1024 N near 2^24 (a ``large-n`` command) takes about 136 ms
of CPU on a 2-core x86-64 VM with Python 3.11 and
``PYTHONDONTWRITEBYTECODE=1``, so that it compiles what it loads: 49 ms
to start the interpreter (32 ms of it ``site``) and compile this module,
57 ms to import numpy and the standard modules, 7 ms for the parser and
the collector's first pass (see :func:`run`), 10.5 ms to load ``energy``
and ``special``, 2 ms for the energies, 3.5 ms for the CSV and 5 ms to
finalize.  So this module imports no layer and no ``fractions``, and
each runner imports what it calls when it runs.  ``eta`` loads
``binary``; ``energy`` and ``oracle-verify`` load ``energy``, which
brings ``special``; ``scan`` and ``figures`` load ``limits``, which
brings ``arith``, ``binary`` and ``special``; ``identities`` loads
``limits`` and ``energy``; ``tseq``, ``fseq``, ``cesaro`` and
``expansion-check`` load ``asymptotics``, which brings ``energy`` and
``special``.  Only ``eta``, ``scan``, ``figures`` and ``identities``
load ``fractions`` (with ``decimal``), through ``binary``.  The layer
functions perfbench/layertrace.py patches here, which no runner calls,
resolve through :data:`_TRACED`.

Flag values may start with '-': ``--s -inf`` and ``--range -3:0`` are
values, not options.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # a process entry: see run()
    gc.disable()

import argparse
import importlib
import json
import math
import re
import sys
import time
from contextlib import ExitStack, contextmanager
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
_LOW27, _LOW32, _LOW64 = (1 << 27) - 1, (1 << 32) - 1, (1 << 64) - 1
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


def _layout(k: int) -> list:
    """The words that lay ``'%.17g'``'s text out around the 17 digits of a
    value of decimal exponent k: the masks of the digits before the '.'
    and the '.' (each 128 bits as two words), the "0.000" prefix and the
    "e-XX" suffix.  Fixed point d.ddd for 0 <= k <= 16, 0.000ddd for
    -4 <= k < 0, else d.ddde±XX."""
    fixed0, fixed = -4 <= k < 0, 0 <= k <= 16
    front = (1 << 8 * k) - 1 if fixed else (1 << 128) - 1 if fixed0 else 0
    dot = 0 if fixed0 or k == 16 else ord(".") << 8 * k if fixed else ord(".")
    prefix = b"\0" + b"0." + b"0" * (-k - 1) if fixed0 else b""
    suffix = b"" if fixed or fixed0 else b"\0e%+03d" % k
    return [front & _LOW64, front >> 64, dot & _LOW64, dot >> 64,
            *(int.from_bytes(b, "little") for b in (prefix, suffix))]


@cache
def _float_tables() -> tuple:
    """The tables of :func:`_float_cells`, built on first use: the 4-digit
    groups 0000..9999 as little-endian ASCII words, plain and with trailing
    '0' as NUL; per biased binary exponent, kbase and thresh, whence the
    decimal exponent of mantissa m is kbase - (m < thresh) (99 outside the
    binades around [1e-11, 1e15)); per k = -11..14, the :func:`_layout`
    words; and 5^0..5^27."""
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
        # least m with v >= 10^j: the ceiling of 10^j·2^(52-e2) = num / den
        num = 10 ** max(j, 0) << max(52 - e2, 0)
        den = 10 ** max(-j, 0) << max(e2 - 52, 0)
        t = -(-num // den)
        kbase[e2 + 1023], thresh[e2 + 1023] = (j, t) if t < 1 << 53 else (j - 1, 0)
    layout = [_layout(k) for k in range(-11, 15)]
    return (np.concatenate([plain, stripped]), kbase, thresh,
            np.array(layout, np.uint64).T.copy(),
            np.uint64(5) ** np.arange(28, dtype=np.uint64))


#: The table columns of :func:`_wide_cells` are indexed by v + (m <
#: thresh): v is twice the biased exponent of a normal value, and twice
#: (_SCALED + biased exponent) for a subnormal scaled by 2^54.
_SCALED = 2048


@cache
def _wide_tables() -> tuple:
    """The tables of :func:`_wide_cells`, built on first use.

    Each power 5^i, i = -324..340, is held as F·2^g with F in [2^127,
    2^128) its 128-bit truncation, from exact integers: 5^i by products,
    5^-i as floor(2^1024 / 5^i) by divisions.  10^j = F_j·2^(g_j + j) lies
    in the binade e2 = 127 + g_j + j, whose mantissas m >= thresh, the
    ceiling of F_j / 2^75 (one more than F_j >> 75 unless F_j is exact with
    75 low zero bits), are >= 10^j; so the decimal exponent of m·2^(e2-52)
    is kbase - (m < thresh), as in :func:`_float_tables`.

    Returns thresh (as floats) per binade index v (see :data:`_SCALED`),
    and per column v + (m < thresh) the multiplier M = 2^(e2-52)·10^(16-k)
    as Mh, Mh's 26-bit halves Mhh and Mhl, and Ml (Mh the top 53 bits of
    F_p, p = 16 - k, Ml the rest), then k, the lead word (the "0.000"
    prefix, '0' at the lead digit), the "e±XX" suffix, two words each of
    the front and the '.' masks of :func:`_layout`, and '0' in every byte
    of the front mask where the front digits are the integer digits
    (0 <= k <= 16).  Also the same layout words per k = -324..308, and
    per k the largest |e - rint(e)| that is not within the digits' error
    of a half: 0.5 where M = Mh exactly, else 0.5 - 2^-46."""
    high, low, g = [], [], []  # F's high word, low word·2^-64 and g, i = -324..340
    r = 1 << 1024
    for _ in range(324):
        r //= 5
        shift = r.bit_length() - 128
        f = r >> shift
        high.append(f >> 64)
        low.append(f & _LOW64)
        g.append(shift - 1024)
    high.reverse(), low.reverse(), g.reverse()
    x = 1
    for _ in range(341):
        shift = x.bit_length() - 128
        f = x >> shift if shift > 0 else x << -shift
        high.append(f >> 64)
        low.append(f & _LOW64)
        g.append(shift)
        x *= 5
    high = np.array(high, np.uint64)
    low = np.array(low, np.float64) * 2.0 ** -64
    g = np.array(g)
    exact = np.arange(-324, 341) >= 0  # 5^i in 128 bits for 0 <= i <= 55
    exact[324 + 56:] = False

    j = np.arange(-324, 309)  # every decimal exponent of a finite double
    fh, fl, gj, xj = high[:633], low[:633], g[:633], exact[:633]
    thresh = (fh >> 11) + (((fh & 0x7FF) != 0) | (fl != 0) | ~xj)
    over = (thresh >> 53).astype(np.int64)  # 10^j above every mantissa of its binade
    start = 127 + gj + j  # the binade of 10^j
    # per e2 = -1077..1023: the j of the last 10^j at or below its binade
    last = np.repeat(j[:-1], np.diff(start))[-1077 - start[0]:]
    last = np.concatenate([last, np.full(1024 - start[-1] + 1, 308)])
    e2 = np.arange(-1077, 1025)
    own = start[last + 324] == e2
    kbase = np.where(own, last - over[last + 324], last)
    thresh = np.where(own & (over[last + 324] == 0), thresh[last + 324], 0)
    by_v = np.repeat(np.concatenate([np.arange(54, _SCALED + 54), np.arange(55)]), 2)
    e2, kbase, thresh = e2[by_v], kbase[by_v], thresh[by_v].astype(np.float64)

    layout = np.array([_layout(k) for k in range(-5, 18)], np.uint64).T
    layout = layout[:, np.minimum(np.maximum(j, -5), 17) + 5]
    a = np.abs(j).astype(np.uint64)
    digits = np.where(a < 100, ord("0") + a // 10 | (ord("0") + a % 10) << 8,
                      ord("0") + a // 100 | (ord("0") + a // 10 % 10) << 8
                      | (ord("0") + a % 10) << 16)
    sign = np.uint64(ord("+")) + np.uint64(2) * (j < 0)  # '+' or '-'
    exponent = (j < -4) | (j > 16)
    suffix = (ord("e") << 8 | sign << 16 | digits << 24) * exponent
    keep = (j >= 0) & (j <= 16)
    zeros = np.uint64(0x3030303030303030)  # '0' in every byte
    columns = np.vstack([layout[4] | np.uint64(ord("0") << 48), suffix,
                         layout[:4], layout[:2] & zeros * keep])
    p = 340 - j  # 5^(16-k), as indices into the powers
    lim = np.where(((high[p] & 0x7FF) == 0) & (low[p] == 0) & exact[p],
                   0.5, 0.5 - 2.0 ** -46)

    k = np.minimum(np.maximum(kbase - np.arange(kbase.size) % 2, -324), 308)
    p = 340 - k
    e = e2 - 52 + (16 - k) + g[p] + 64
    mh = np.ldexp((high[p] >> 11).astype(np.float64), e + 11)
    ml = np.ldexp((high[p] & 0x7FF).astype(np.float64) + low[p], e)
    c = mh * 134217729.0
    mhh = c - (c - mh)
    pair = np.vstack([np.vstack([mh, mhh, mh - mhh, ml]).view(np.uint64),
                      k.astype(np.uint64), columns[:, k + 324]])
    return thresh, pair, columns, lim


def _wide_cells(values: np.ndarray, work: tuple) -> tuple:
    """The cell words of :func:`_float_cells` for finite values, made for
    those off its fast path (any finite value comes out right), with each
    value's decimal exponent k and the indices of the values whose digits
    it cannot certify.  ``values`` is a copy it may change; every step
    writes through ``out=`` into ``work`` (:func:`_cell_work`), the fast
    path's rows and the pass's own block, several rows a call.

    With m the 53-bit mantissa (subnormals scaled by 2^54 first) and
    x = m·M, M = 2^(e2-52)·10^(16-k) in [1.1, 23) from the table, the 17
    digits are D = round-half-even(x), x in [1e16, 1e17).  M is held as
    Mh + Ml, Mh its top 53 bits; with m split at bit 27 and Mh in halves
    of 26 bits, the four partial products are exact and p + e = m·Mh
    exactly (Dekker's product), so x = p + e + m·Ml, p an even integer
    >= 2^53, and D = p + rint(e + m·Ml).  The sum is within 2^-47 of
    x - p, so where it lies within 2^-46 of a half the digits are not
    certain: those values go to :func:`_percent_cells`.  Where M = Mh
    (10^(16-k) is 5^0..5^22 times a power of 2) the sum is exact and rint
    breaks the ties of 1e15 <= x < 2^51, k = 15, to even.  The words then
    follow the fast path, the integer digits of fixed-point values
    (0 <= k <= 16) keeping the zeros the stripped groups drop."""
    thresh, pair, columns, lim = _wide_tables()
    groups = _float_tables()[0]
    n = values.size
    flags, (t0, t1, t2, t3, t4, t5, t6, sign) = work[1][:4, :n], work[1][4:, :n]
    quad = work[2][:4 * n].reshape(4, n)
    table = work[4][:13 * n].reshape(13, n)
    words = work[4][13 * n:17 * n].reshape(n, 4)
    low = work[3][0, :n]
    bits = values.view(np.uint64)
    np.right_shift(bits, 63, out=sign)
    v = np.right_shift(bits, 51, out=t0)
    v &= 0xFFE  # twice the biased exponent
    zero = None
    if n and v.min() == 0:  # subnormals times 2^54 are normal; zeros become 1
        tiny = np.flatnonzero(v == 0)
        zero = tiny[bits[tiny] << 1 == 0]
        values[tiny] *= 2.0 ** 54
        values[zero] = 1.0
        v[tiny] = (bits[tiny] >> 51 & 0xFFE) + 2 * _SCALED
    m = np.bitwise_and(bits, (1 << 52) - 1, out=t1)
    m |= 1075 << 52  # as a float, the mantissa 2^52 + fraction
    top = np.bitwise_and(m, _LOW64 - _LOW27, out=t2).view(np.float64)  # bits 27..52
    m = m.view(np.float64)
    rest = np.subtract(m, top, out=t3.view(np.float64))
    v += np.less(m, thresh.take(v.view(np.int64), out=t4.view(np.float64),
                                mode="clip"), out=low)
    pair.take(v.view(np.int64), axis=1, out=table, mode="clip")
    mh, ml = table[0].view(np.float64), table[3].view(np.float64)
    halves = table[1:3].view(np.float64)
    k = table[4].view(np.int64)
    head, suffix, front, dot, keep = table[5], table[6], table[7:9], table[9:11], table[11:]
    p = np.multiply(m, mh, out=t4.view(np.float64))
    hp = np.multiply(top, halves, out=quad[:2].view(np.float64))
    rp = np.multiply(rest, halves, out=quad[2:].view(np.float64))
    e = np.subtract(hp[0], p, out=t5.view(np.float64))
    e += hp[1]
    e += rp[0]
    e += rp[1]
    e += np.multiply(m, ml, out=t6.view(np.float64))
    r = np.rint(e, out=t6.view(np.float64))
    e -= r
    uncertain = np.flatnonzero(np.abs(e, out=e) > 0.5 - 2.0 ** -46)
    if uncertain.size:  # a tie is certain where the sum is exact
        uncertain = uncertain[e[uncertain] > lim[k[uncertain] + 324]]
    d = t1
    np.copyto(d, p, casting="unsafe")
    np.copyto(t2.view(np.int64), r, casting="unsafe")
    d += t2
    if n and d.max() >= 10 ** 17:  # rounded up to the next power of 10
        carry = np.flatnonzero(d >= 10 ** 17)
        d[carry] = 10 ** 16
        k[carry] += 1
        table[5:, carry] = columns[:, k[carry] + 324]
    g1, g2, g3, g4 = quad
    lead = np.floor_divide(d, 10 ** 16, out=t0)
    d -= np.multiply(lead, 10 ** 16, out=t2)
    hi8 = np.floor_divide(d, 10 ** 8, out=g2)
    lo8 = d
    lo8 -= np.multiply(hi8, 10 ** 8, out=t2)
    np.floor_divide(hi8, 10 ** 4, out=g1)
    np.floor_divide(lo8, 10 ** 4, out=g3)
    g2 -= np.multiply(g1, 10 ** 4, out=t2)
    np.subtract(lo8, np.multiply(g3, 10 ** 4, out=t2), out=g4)
    # each group's ASCII word, stripped where only zeros follow it
    np.equal(np.bitwise_or(g2, lo8, out=t2), 0, out=flags[0], casting="unsafe")
    np.equal(lo8, 0, out=flags[1], casting="unsafe")
    np.equal(g4, 0, out=flags[2], casting="unsafe")
    flags[3] = 1
    index = np.multiply(flags, _STRIPPED, out=table[:4])
    index += quad
    groups.take(index.view(np.int64), out=quad, mode="clip")
    yz = np.left_shift(quad[1::2], 32, out=table[:2])  # digits 2..9, 10..17
    yz |= quad[::2]
    yz |= keep  # the integer digits keep their zeros
    before = np.bitwise_and(yz, front, out=table[2:4])
    after = np.bitwise_xor(yz, before, out=yz)
    frac = np.not_equal(np.bitwise_or(after[0], after[1], out=t2), 0, out=t2,
                        casting="unsafe")
    before |= np.multiply(dot, frac, out=quad[:2])
    before |= np.left_shift(after, 8, out=quad[:2])
    spill = np.right_shift(after, 56, out=quad[2:])
    np.multiply(sign, ord("-"), out=t2)
    t2 |= head
    np.bitwise_or(t2, np.left_shift(lead, 48, out=lead), out=words[:, 0])
    words[:, 1] = before[0]
    np.bitwise_or(before[1], spill[0], out=words[:, 2])
    np.bitwise_or(spill[1], suffix, out=words[:, 3])
    if zero is not None and zero.size:
        words[zero] = 0
        words[zero, 0] = sign[zero] * ord("-") | ord("0") << 48
        k[zero] = 0
    return words, k, uncertain


def _percent_cells(values: np.ndarray) -> np.ndarray:
    """Each value as ``'%.17g' % value`` in a NUL-padded row of 24 bytes:
    the cells of nan, inf and -inf, and of the values whose digits
    :func:`_wide_cells` cannot certify."""
    return np.array(["%.17g" % x for x in values.tolist()],
                    "S24").view(np.uint8).reshape(-1, 24)


def _cell_work(size: int) -> tuple:
    """The work arrays of :func:`_float_columns` and :func:`_float_cells`
    for up to ``size`` values: a float row for the joined columns, then
    the kernel's 12 uint64 rows, its 6 layout words per value, 3 bool
    rows, and the 17 uint64 rows of :func:`_wide_cells` (whose pages a
    run without cells off the fast path never touches)."""
    return (np.empty(size), np.empty((12, size), np.uint64),
            np.empty(6 * size, np.uint64), np.empty((3, size), bool),
            np.empty(17 * size, np.uint64))


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
    Every other finite value (|v| outside that range, subnormals, ±0) and
    every whole number (whose integer zeros the strip would drop) takes a
    second pass, :func:`_wide_cells`, which lays out the same words over
    all decimal exponents; its cells are put into their rows.  Only nan,
    inf and -inf, and a value whose digits the second pass cannot certify
    (none in 2^20 random doubles), are formatted by
    :func:`_percent_cells` and spliced in.

    Every step but the cells writes through ``out=`` into the leading n
    elements of ``work`` (:func:`_cell_work`, made here if not given), so
    a writer that passes one ``work`` to every chunk makes one array per
    chunk, the cells, and where the second pass runs the index and value
    arrays of the cells it takes.

    Byte 0 holds a '-', 1..5 the "0.000" prefix (k = -4..-1), 6 the lead
    digit, 24 the last digit after a '.' (0 <= k <= 15, or the exponent
    form) and 25..29 the "e±XX" or "e±XXX" suffix (k < -4 or k > 16).  So
    the view starts at column 0 if a value is negative, else at 1 if some
    k may lie in -4..-1, else at 6, and ends before 30 if some |k| >= 100,
    else before 29 if some k < -4 or k > 16, else before 25 if some
    k >= 0, else before 24, from the k of both passes (the fast path
    counts 0 for the cells it leaves); a call with a ``%`` cell keeps all
    32.  The figures panels
    (x in (1/2, 1), values near 1) keep 24 columns in 254 of 256 chunks.
    """
    groups, kbase, thresh, layout, pow5 = _float_tables()
    values = np.ascontiguousarray(values, np.float64)
    n = values.size
    work = work or _cell_work(n)
    _, rows, layout_words, flags, _ = work
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
    low, high = (int(k.min()), int(k.max())) if n else (0, 0)
    negative = sign.any()
    slow = np.flatnonzero(np.logical_not(fast, out=flag))
    if slow.size:
        wide = values[slow]
        finite = np.isfinite(wide)
        spliced = slow[:0]
        if not finite.all():  # nan, inf and -inf
            spliced, slow, wide = slow[~finite], slow[finite], wide[finite]
        if slow.size:
            wide, kw, uncertain = _wide_cells(wide, work)
            np.put(words.view("V32").reshape(-1), slow, wide.view("V32").reshape(-1))
            low, high = min(low, int(kw.min())), max(high, int(kw.max()))
            spliced = np.concatenate([spliced, slow[uncertain]])
        if spliced.size:
            cells[spliced] = 0
            cells[spliced, :24] = _percent_cells(values[spliced])
            return cells
    first = 0 if negative else 1 if low < 0 and high >= -4 else 6
    last = (30 if low <= -100 or high >= 100 else 29 if low < -4 or high > 16
            else 25 if high >= 0 else 24)
    return cells[:, first:last]


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


def run() -> int:
    """The process entry (``python -m rieszgreedy.cli`` and the
    ``rieszgreedy`` console script): :func:`main` under one
    garbage-collection policy for the process.  Callers in a process that
    goes on, such as tests, call :func:`main`, which leaves the collector
    as it finds it.  CPU times below are of one ``large-n`` process on a
    2-core x86-64 VM with Python 3.11.

    - Start-up: run as ``__main__``, this module disables the collector
      before it imports argparse, json or numpy.  Their loading makes some
      22k objects that live to the end; with collection on, some 34 passes
      scan them as they pile up (about 5 ms), with it off the command's
      first pass scans them once (about 4.5 ms).
    - The command: collection is on, as in any caller, so the cycles the
      command makes are freed as they are in process.  Left off, or with
      the start-up objects frozen so that no pass scans them, the peak RSS
      of ``tseq --s 0.5 --range 2:1048577`` rose 36.7 → 37.5 MB.
    - Exit: :func:`gc.freeze` moves every object into the permanent
      generation, so the full collections that interpreter finalization
      runs traverse none of them, which saves about 15 ms.  It runs also
      when :func:`main` raises, as on a usage error's SystemExit.

    The freeze asks one thing of every command: each file it writes is
    closed by a ``with`` before :func:`main` returns or raises, because
    a frozen cycle is never collected, and a file only it holds might
    never be flushed."""
    gc.enable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
