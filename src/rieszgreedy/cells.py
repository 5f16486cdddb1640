"""The float cells of the CSV row writer: each float as ``'%.17g' % v``,
byte for byte, by one numpy kernel, :func:`_float_cells`, which
certifies the digits of every finite double; ``%``
(:func:`_percent_cells`) formats only nan, inf and -inf and the few
values whose rounding the kernel cannot certify.  :func:`_float_columns`
formats a chunk's float columns in one call, so that all of them are as
wide.

Routing: the row writer (``rieszgreedy.cli._csv_files``) loads this
module only for a CSV whose first block holds at least one chunk
(``rieszgreedy.cli._CSV_CHUNK``, 2048 rows) and formats a shorter CSV's
floats with ``%``; both routes write the same bytes.  ``%`` takes about
0.36 us a value; the kernel about 0.023 us a value in a writer's chunks
(72 ms for the 3,145,728 values of ``figures --M 20``), but it costs a
fresh process about 2.9 ms before its first cell: 1.9 ms to import this
module (1.45 ms of it compiling it, with ``PYTHONDONTWRITEBYTECODE=1``),
0.8 ms to build :func:`_tables` and 0.17 ms to make the work arrays and
run the first call over 1024 values (medians of 15 fresh processes on
one CPU of a 2-core x86-64 VM, Python 3.11, where a ``large-n`` process
took 59 ms of CPU).  So ``%`` is cheaper below some 8k values, and a CSV
below one chunk holds at most 2047 rows of a few float columns.  The
rule rests on the output's size, which real runs have on both sides: an
``energy`` range of 1024 N takes ``%``, a ``figures --M 20`` or an
``expansion-check`` over 2^14 N the kernel.

This module never imports ``rieszgreedy.cli``: under ``python -m
rieszgreedy.cli`` that module is ``__main__``, so the import would
compile and run it a second time.
"""

from __future__ import annotations

from functools import cache
from typing import Optional

import numpy as np

_LOW27, _LOW64 = (1 << 27) - 1, (1 << 64) - 1
_STRIPPED = np.uint64(10_000)  # offset of the stripped digit groups


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


#: The scale columns of :func:`_float_cells` are indexed by v + (m <
#: thresh): v is twice the biased exponent of a normal value, and twice
#: (_SCALED + biased exponent) for a subnormal scaled by 2^54.
_SCALED = 2048
_ROWS = 10  # the uint64 work rows of _float_cells


@cache
def _tables() -> tuple:
    """The tables of :func:`_float_cells`, built on first use.

    The 4-digit groups 0000..9999 as little-endian ASCII words, plain and
    (from :data:`_STRIPPED` on) with trailing '0' as NUL.

    Each power 5^i, i = -324..340, is held as F·2^g with F in [2^127,
    2^128) its 128-bit truncation, from exact integers: 5^i by products,
    5^-i as floor(2^1024 / 5^i) by divisions.  10^j = F_j·2^(g_j + j) lies
    in the binade e2 = 127 + g_j + j, whose mantissas m >= thresh, the
    ceiling of F_j / 2^75 (one more than F_j >> 75 unless F_j is exact with
    75 low zero bits), are >= 10^j; so the decimal exponent of m·2^(e2-52)
    is kbase - (m < thresh), kbase that of the binade's largest mantissa.

    Returns the groups, thresh (as floats) per binade index v (see
    :data:`_SCALED`), and per column v + (m < thresh) the scale: the
    multiplier M = 2^(e2-52)·10^(16-k) as Mh, Mh's 26-bit halves Mhh and
    Mhl, and Ml (Mh the top 53 bits of F_p, p = 16 - k, Ml the rest), then
    c = k + 324.  Per c (k = -324..308) the layout: the lead word (the
    "0.000" prefix, '0' at the lead digit), the "e±XX" suffix, two words
    each of the front and the '.' masks of :func:`_layout`, and '0' in
    every byte of the front mask where the front digits are the integer
    digits (0 <= k <= 16); and per c the largest |e - rint(e)| that is not
    within the digits' error of a half: 0.5 where M = Mh exactly, else
    0.5 - 2^-46."""
    i = np.arange(10_000, dtype=np.uint64)
    plain = stripped = np.zeros_like(i)
    for place in range(4):
        char = (i // 10 ** (3 - place) % 10 + ord("0")) << 8 * place
        plain = plain | char
        stripped = stripped | np.where(i % 10 ** (4 - place) != 0, char, 0)

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
    scale = np.vstack([np.vstack([mh, mhh, mh - mhh, ml]).view(np.uint64),
                       (k + 324).astype(np.uint64)])
    return np.concatenate([plain, stripped]), thresh, scale, columns, lim


def _percent_cells(values: np.ndarray) -> np.ndarray:
    """Each value as ``'%.17g' % value`` in a NUL-padded row of 24 bytes:
    the cells of nan, inf and -inf, and of the values whose digits
    :func:`_float_cells` cannot certify."""
    return np.array(["%.17g" % x for x in values.tolist()],
                    "S24").view(np.uint8).reshape(-1, 24)


def _cell_work(size: int) -> tuple:
    """The work arrays of :func:`_float_columns` and :func:`_float_cells`
    for up to ``size`` values: a float row for the joined columns, the
    kernel's :data:`_ROWS` uint64 rows and its bool row."""
    return np.empty(size), np.empty(_ROWS * size, np.uint64), np.empty(size, bool)


def _float_cells(values: np.ndarray, work: Optional[tuple] = None) -> np.ndarray:
    """Each value as ``'%.17g' % value``, byte for byte, in a row of a new
    NUL-padded uint8 matrix: a column view of the (n, 32) cells, which
    keeps only the byte columns some value can fill.

    The digits: with m the 53-bit mantissa (subnormals scaled by 2^54
    first) and x = m·M, M = 2^(e2-52)·10^(16-k) in [1.1, 23) from the
    scale table (k the decimal exponent), the 17 digits are
    D = round-half-even(x), x in [1e16, 1e17).  M is held as Mh + Ml, Mh
    its top 53 bits; with m split at bit 27 and Mh in halves of 26 bits,
    the four partial products are exact and p + e = m·Mh exactly
    (Dekker's product), so x = p + e + m·Ml, p an even integer >= 2^53,
    and D = p + rint(e + m·Ml).  The sum is within 2^-47 of x - p, so
    where it lies within 2^-46 of a half the digits are not certain:
    those values go to :func:`_percent_cells` (none in 2^20 random
    doubles).  Where M = Mh (10^(16-k) is 5^0..5^22 times a power of 2)
    the sum is exact and rint breaks the ties of 1e15 <= x < 2^51, k = 15,
    to even.  The exact ties at k = -7 and -8 (±c·2^-24, c odd, 3..15,
    ±2^-25 and ±3·2^-25) are among the uncertain ones.

    The text: D is a lead digit and four 4-digit groups, looked up as
    ASCII words (``take``, on int64 indices, which it neither casts nor,
    in ``clip`` mode, copies its output for; every index is in range); a
    group followed by zeros only takes its stripped form, which drops
    %g's trailing zeros, and the integer digits of a fixed-point value
    (0 <= k <= 16) keep theirs.  Per-k masks and words place them, with
    NUL between the parts.  Zeros, nan and ±inf are computed as 1.0 in a
    copy of the values, made only for a call that holds one, so the
    caller's array is never changed; zeros then get "0" or "-0", and nan,
    inf and -inf a ``%`` cell.

    Every step but the cells writes through ``out=`` into the leading n
    elements of ``work`` (:func:`_cell_work`, made here if not given), so
    a writer that passes one ``work`` to every chunk makes one array per
    chunk, the cells, and a few index arrays.

    Byte 0 holds a '-', 1..5 the "0.000" prefix (k = -4..-1), 6 the lead
    digit, 24 the last digit after a '.' (0 <= k <= 15, or the exponent
    form) and 25..29 the "e±XX" or "e±XXX" suffix (k < -4 or k > 16).  So
    the view starts at column 0 if a value is negative, else at 1 if some
    k may lie in -4..-1, else at 6, and ends before 30 if some |k| >= 100,
    else before 29 if some k < -4 or k > 16, else before 25 if some
    k >= 0, else before 24 (zeros count k = 0); a call with a ``%`` cell
    keeps all 32.  The figures panels (x in (1/2, 1), values near 1) keep
    24 columns in 254 of 256 chunks."""
    groups, thresh, scale, columns, lim = _tables()
    values = source = np.ascontiguousarray(values, np.float64)
    n = values.size
    work = work or _cell_work(n)
    rows, flag = work[1][:_ROWS * n].reshape(_ROWS, n), work[2][:n]
    r0, r1, r2, r3, r4, r5, r6, r7, r8, r9 = rows
    bits = values.view(np.uint64)
    v = np.right_shift(bits, 51, out=r0)
    v &= 0xFFE  # twice the biased exponent
    special = zero = None
    if n and (v.min() == 0 or v.max() == 0xFFE):
        values = values.copy()
        bits = values.view(np.uint64)
        special = np.flatnonzero(v == 0xFFE)  # nan, inf and -inf
        tiny = np.flatnonzero(v == 0)  # subnormals times 2^54 are normal
        zero = tiny[bits[tiny] << 1 == 0]
        values[tiny] *= 2.0 ** 54
        v[tiny] = (bits[tiny] >> 51 & 0xFFE) + 2 * _SCALED
        values[special] = values[zero] = 1.0
        v[special] = v[zero] = 0x7FE
    m = np.bitwise_and(bits, (1 << 52) - 1, out=r1)
    m |= 1075 << 52  # as a float, the mantissa 2^52 + fraction
    top = np.bitwise_and(m, _LOW64 - _LOW27, out=r2).view(np.float64)  # bits 27..52
    m = m.view(np.float64)
    rest = np.subtract(m, top, out=r3.view(np.float64))
    v += np.less(m, thresh.take(v.view(np.int64), out=r4.view(np.float64),
                                mode="clip"), out=flag)
    table = scale.take(v.view(np.int64), axis=1, out=rows[4:9], mode="clip")
    mh, mhh, mhl, ml = table[:4].view(np.float64)
    c = r8.view(np.int64)  # k + 324, the column of k's layout
    p = np.multiply(m, mh, out=r0.view(np.float64))
    e = np.multiply(top, mhh, out=r9.view(np.float64))
    e -= p
    part = r4.view(np.float64)
    e += np.multiply(top, mhl, out=part)
    e += np.multiply(rest, mhh, out=part)
    e += np.multiply(rest, mhl, out=part)
    e += np.multiply(m, ml, out=part)
    r = np.rint(e, out=r1.view(np.float64))
    e -= r
    np.greater(np.abs(e, out=e), 0.5 - 2.0 ** -46, out=flag)
    uncertain = np.flatnonzero(flag)
    if uncertain.size:  # a tie is certain where the sum is exact
        uncertain = uncertain[e[uncertain] > lim[c[uncertain]]]
    d = r2
    np.copyto(d, p, casting="unsafe")
    np.copyto(r3.view(np.int64), r, casting="unsafe")
    d += r3
    if n and d.max() >= 10 ** 17:  # rounded up to the next power of 10
        carry = np.flatnonzero(d >= 10 ** 17)
        d[carry] = 10 ** 16
        c[carry] += 1
    lead = np.floor_divide(d, 10 ** 16, out=r0)
    d -= np.multiply(lead, 10 ** 16, out=r1)
    g2 = np.floor_divide(d, 10 ** 8, out=r4)
    lo8 = d
    lo8 -= np.multiply(g2, 10 ** 8, out=r1)
    g1 = np.floor_divide(g2, 10 ** 4, out=r3)
    g3 = np.floor_divide(lo8, 10 ** 4, out=r5)
    g2 -= np.multiply(g1, 10 ** 4, out=r1)
    g4 = np.subtract(lo8, np.multiply(g3, 10 ** 4, out=r1), out=r6)
    # each group's index in groups: stripped where only zeros follow it
    g1 += np.multiply(np.equal(np.bitwise_or(g2, lo8, out=r1), 0, out=flag),
                      _STRIPPED, out=r1)
    g2 += np.multiply(np.equal(lo8, 0, out=flag), _STRIPPED, out=r1)
    g3 += np.multiply(np.equal(g4, 0, out=flag), _STRIPPED, out=r1)
    g4 += _STRIPPED
    yz = rows[1:3]  # digits 2..9 and 10..17, each two group words
    for word, left, right in ((r1, g1, g2), (r2, g3, g4)):
        groups.take(right.view(np.int64), out=word, mode="clip")
        word <<= 32
        word |= groups.take(left.view(np.int64), out=r7, mode="clip")
    yz |= columns[6:].take(c, axis=1, out=rows[3:5], mode="clip")  # integer zeros
    front = columns[2:4].take(c, axis=1, out=rows[3:5], mode="clip")
    before = np.bitwise_and(yz, front, out=rows[5:7])
    after = np.bitwise_xor(yz, before, out=yz)
    frac = np.not_equal(np.bitwise_or(after[0], after[1], out=r7), 0, out=r7,
                        casting="unsafe")
    dot = columns[4:6].take(c, axis=1, out=rows[3:5], mode="clip")
    before |= np.multiply(dot, frac, out=dot)
    before |= np.left_shift(after, 8, out=rows[3:5])
    spill = np.right_shift(after, 56, out=after)
    words = np.empty((n, 4), "<u8")
    minus = np.right_shift(source.view(np.uint64), 63, out=r7)
    negative = minus.any()
    minus *= ord("-")
    head = np.bitwise_or(minus, columns[0].take(c, out=r3, mode="clip"), out=r3)
    np.bitwise_or(head, np.left_shift(lead, 48, out=lead), out=words[:, 0])
    words[:, 1] = before[0]
    np.bitwise_or(before[1], spill[0], out=words[:, 2])
    np.bitwise_or(spill[1], columns[1].take(c, out=r3, mode="clip"), out=words[:, 3])
    cells = words.view(np.uint8)
    if zero is not None:
        words[zero] = 0
        words[zero, 0] = minus[zero] | ord("0") << 48
        c[zero] = 324
    spliced = uncertain if special is None else np.concatenate([special, uncertain])
    if spliced.size:
        cells[spliced] = 0
        cells[spliced, :24] = _percent_cells(source[spliced])
        return cells
    low, high = (int(c.min()) - 324, int(c.max()) - 324) if n else (0, 0)
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
