"""The float cells of the CSV row writer: each float as ``'%.17g' % v``,
byte for byte, by numpy kernels.  :func:`_float_cells` has a fast path
for most values and gives every other finite one to a second pass,
:func:`_wide_cells`; ``%`` (:func:`_percent_cells`) formats only nan,
inf and -inf.  :func:`_float_columns` formats a chunk's float columns in
one call, so that all of them are as wide.

Routing: the row writer (``rieszgreedy.cli._csv_files``) loads this
module only for a CSV whose first block holds at least one chunk
(``rieszgreedy.cli._CSV_CHUNK``, 2048 rows) and formats a shorter CSV's
floats with ``%``; both routes write the same bytes.  ``%`` takes about
0.65-0.85 us a value; the kernels take about 0.06 us a value on the
fast path but cost a fresh process about 8.5-9 ms before their first
cell: 5.3-5.8 ms to import this module (4.3 ms of it compiling it, with
``PYTHONDONTWRITEBYTECODE=1``) and 3.1-3.3 ms to build
:func:`_float_tables` (and :func:`_wide_tables` for a value off the fast
path), make the work arrays and run the first call (fresh processes on
one CPU of a 2-core x86-64 VM, Python 3.11).  So ``%`` is cheaper below
some 10k-14k values, and a CSV below one chunk holds at most 2047 rows
of a few float columns.  The rule rests on the output's size, which
real runs have on both sides: an ``energy`` range of 1024 N takes
``%``, a ``figures --M 20`` or an ``expansion-check`` over 2^14 N the
kernels.

This module never imports ``rieszgreedy.cli``: under ``python -m
rieszgreedy.cli`` that module is ``__main__``, so the import would
compile and run it a second time.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Optional

import numpy as np

_LOW27, _LOW32, _LOW64 = (1 << 27) - 1, (1 << 32) - 1, (1 << 64) - 1
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
