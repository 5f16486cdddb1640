"""The float cells of the CSV writers equal ``'%.17g' % v`` byte for byte
for every double: over random bit patterns, at edges of the kernel
(powers of ten, exact rounding ties, whole numbers, the byte columns each
layout fills), over every binade, and with zeros, subnormals, nan and inf
at any row of a chunk; only nan, inf and -inf and the 17th-digit ties the
kernel cannot certify reach ``%``.  Whole rows are held to
the % template writer of tests/oracles.py, and the figures writer's shared
row matrix to :func:`cli._csv_rows`; both writers format each chunk's
float columns in one call.  The int cells equal ``str(v)`` for every
int64 value."""

import math
import os
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rieszgreedy import cells, cli, limits

EXPONENT_FIELD = np.uint64(0x7FF << 52)


def cell_texts(values: np.ndarray) -> list:
    return [row.tobytes().replace(b"\0", b"").decode()
            for row in cells._float_cells(values)]


def assert_matches_percent(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    assert cell_texts(values) == ["%.17g" % v for v in values.tolist()]
    other = values[::-1].copy()
    rows = cli._csv_rows([cells._float_cells(values), cells._float_cells(other)],
                         values.size).tobytes().translate(None, b"\0")
    assert rows == oracles.csv_rows([values, other], values.size).encode()


@st.composite
def bit_patterns(draw) -> np.ndarray:
    """Random 64-bit patterns viewed as float64, a drawn share of them moved
    into the binades of about [1e-12, 1e16), with
    patterns and floats drawn by hypothesis spliced in at drawn rows."""
    size = draw(st.sampled_from([0, 1]) | st.integers(2, 3 << 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bits = rng.integers(0, 1 << 64, size, dtype=np.uint64)
    near = rng.random(size) < draw(st.floats(0.0, 1.0))
    exponents = rng.integers(1023 - 40, 1023 + 52, size, dtype=np.uint64)
    bits[near] = bits[near] & ~EXPONENT_FIELD | exponents[near] << np.uint64(52)
    values = bits.view(np.float64)
    if size:
        for v in draw(st.lists(st.integers(0, (1 << 64) - 1).map(
                lambda b: np.uint64(b).view(np.float64)) | st.floats(), max_size=8)):
            values[draw(st.integers(0, size - 1))] = v
    return values


@contextmanager
def spliced_by_percent():
    """The list of the values :func:`cells._percent_cells` formats inside."""
    spliced, real = [], cells._percent_cells

    def spy(values):
        spliced.extend(values.tolist())
        return real(values)
    with mock.patch.object(cells, "_percent_cells", spy):
        yield spliced


def tie_distance(value: float) -> Fraction:
    """How far |value|·10^(16-k), k its decimal exponent, lies from a
    half-integer: 0 for an exact 17th-digit tie."""
    f = abs(Fraction(value))
    k = math.floor(math.log10(f))
    k += (Fraction(10) ** (k + 1) <= f) - (Fraction(10) ** k > f)
    x = f * Fraction(10) ** (16 - k)
    return abs(x - math.floor(x) - Fraction(1, 2))


@settings(max_examples=60, deadline=None)
@given(values=bit_patterns())
def test_random_bit_patterns(values):
    with spliced_by_percent() as spliced:
        assert_matches_percent(values)
    # a finite value takes % only where its digits' sum lies within 2^-46
    # of a half, and the sum is within 2^-47 of the exact one
    assert all(tie_distance(v) < Fraction(3, 1 << 47)
               for v in spliced if math.isfinite(v))


def test_pass_certifies_random_doubles():
    # the digits of a finite value are uncertain only within 2^-46 of a
    # rounding tie: none among 2^20 random finite doubles (fewer than 1
    # in 10^6)
    rng = np.random.default_rng(20)
    values = rng.integers(0, 1 << 64, 1 << 20, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)]
    work = cells._cell_work(1 << 14)
    with spliced_by_percent() as spliced:
        for start in range(0, values.size, 1 << 14):
            cells._float_cells(values[start:start + (1 << 14)], work)
    assert spliced == []


#: The finite doubles that are exact 17th-digit ties at k = -7 and -8,
#: where 10^(16-k) takes more than 53 bits, so the kernel cannot certify
#: their rounding: ±c·2^-24 (c odd, 3..15), ±2^-25 and ±3·2^-25.
UNCERTAIN_TIES = [s * v for v in [c * 2.0 ** -24 for c in range(3, 16, 2)]
                  + [2.0 ** -25, 3 * 2.0 ** -25] for s in (1, -1)]


def test_exact_ties_below_1e_6_take_percent():
    assert len(UNCERTAIN_TIES) == 18
    assert all(tie_distance(v) == 0 for v in UNCERTAIN_TIES)
    with spliced_by_percent() as spliced:
        assert_matches_percent(UNCERTAIN_TIES)
    assert spliced[:18] == UNCERTAIN_TIES


def test_no_figures_value_takes_percent(tmp_path):
    # the grid data of figures: every finite cell from the kernel
    calls, real = [], cells._float_columns

    def spy(columns, work):
        calls.append(len(columns))
        return real(columns, work)

    with spliced_by_percent() as spliced, mock.patch.object(cells, "_float_columns", spy):
        assert cli.main(["figures", "--M", "14", "--out", str(tmp_path)]) == 0
    assert len(calls) == 4 and not any(map(math.isfinite, spliced))


def _neighbours(v: float) -> list:
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


EDGES = [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3,
         100.0, 1e14, 120.5, 9.9999999999999995e-05,
         *_neighbours(1e-11), *_neighbours(1e15),
         *(v for k in range(-11, 16) for v in _neighbours(float(Fraction(10) ** k)))]


@pytest.mark.parametrize("value", EDGES + [-v for v in EDGES], ids=repr)
def test_edge_values(value):
    assert_matches_percent([value])


def _as_float(bits: int) -> float:
    return float(np.uint64(bits).view(np.float64))


def _tie_neighbours(digits: int, k: int) -> list:
    """The doubles nearest the tie (digits + 1/2)·10^(k-16) of the 17th
    digit, and their neighbours."""
    v = float((Fraction(digits) + Fraction(1, 2)) * Fraction(10) ** (k - 16))
    return _neighbours(v)


#: Every finite double by its bits, whole numbers to 2^1023, 10^k and its
#: neighbours, the doubles nearest 17th-digit ties above 2^53 and below
#: 1e-11 (no double is such a tie there: see test_no_exact_wide_ties),
#: the exact ties of [1e15, 2^51), and 3-digit exponents of both signs.
WIDE = st.one_of(
    st.integers(0, 0x7FEFFFFFFFFFFFFF).map(_as_float),
    st.integers(1, 1 << 1023).map(float),
    st.integers(-323, 308).map(lambda k: float(Fraction(10) ** k)).flatmap(
        lambda v: st.sampled_from(_neighbours(v))),
    st.tuples(st.integers(10 ** 16, 10 ** 17 - 1),
              st.integers(-323, -12) | st.integers(16, 307)).flatmap(
        lambda dk: st.sampled_from(_tie_neighbours(*dk))),
    st.integers(2 * 10 ** 15, (1 << 52) - 1).map(lambda q: (2 * q + 1) / 4),
    st.floats(1e100, 1.7e308) | st.floats(5e-324, 1e-100),
).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(WIDE, min_size=1, max_size=64))
@example(values=[0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
@example(values=[float((1 << 53) - 1), float(1 << 53), float((1 << 53) + 2), 1e15,
                 1000000000000000.2, 1000000000000000.8, 9.9999999999999992e22])
def test_every_binade_through_the_second_pass(values):
    with spliced_by_percent() as spliced:
        assert_matches_percent(values)
    assert spliced == []


def test_no_exact_wide_ties():
    # a 17th-digit tie of exponent k is v = (2D + 1)·5^(k-16)·2^(k-17),
    # 10^16 <= D < 10^17.  For k >= 16 its odd part is at least
    # 2D + 1 > 2^53, and for k < 16 it needs 5^(16-k) to divide 2D + 1 <
    # 2·10^17, so k >= -8: no tie above 2^53 or below 1e-11 is a double,
    # while [1e15, 2^51) holds exact ties (k = 15).
    assert 2 * 10 ** 16 + 1 > 1 << 53 and 5 ** (16 + 9) > 2 * 10 ** 17
    v = 1000000000000000.25
    assert (Fraction(v) * 10).denominator == 2 and "%.17g" % v == "1000000000000000.2"


#: Values at both ends of three layouts, as decimal exponents k: -11 and
#: -5 ("d.ddde-XX"), -4 and -1 ("0.000ddd"), 0 and 14 ("ddd.ddd"); none
#: a whole number.
SPAN_EDGES = [1.2345678901234567e-11, 9.8765432109876543e-11, 1.5e-05, 9.9e-05,
              0.00015, 0.00099, 0.15, 0.99, 1.5, 9.5,
              123456789012345.67, 987654321098765.4]


def test_span_edges_alone_and_mixed():
    # a call's cells keep only the columns its values can fill, from its
    # least and greatest k and its signs, so every pair is one call
    values = SPAN_EDGES + [-v for v in SPAN_EDGES]
    for a in values:
        for b in values:
            assert_matches_percent([a, b])
    assert_matches_percent(values)


@pytest.mark.parametrize("values,width", [
    ([0.75], 23), ([0.75, 1.5], 24), ([1.5], 19), ([-0.75], 24),
    ([1e-07], 23), ([1e-07, 0.75], 28), ([-1e-07, 1.5], 29), ([0.75, 100.0], 24),
    ([1e20], 23), ([5e-324], 24), ([-1.5e300], 30), ([np.inf, 0.5], 32)])
def test_cells_keep_the_columns_values_can_fill(values, width):
    assert cells._float_cells(np.array(values)).shape[1] == width
    assert_matches_percent(values)


def test_ties_round_half_even_both_ways():
    directions = set()
    for j in (1, 3, 5):
        v = 1234567 + j * 2.0 ** -11
        scaled = Fraction(v) * 10 ** 10  # the 17 digits end at 10^-10
        assert scaled.denominator == 2  # an exact tie
        assert_matches_percent([v])
        digits = int(cell_texts(np.array([v]))[0].replace(".", ""))
        assert digits == round(scaled) and digits % 2 == 0
        directions.add(digits > scaled)
    assert directions == {True, False}


#: Values whose digit groups are looked up at both ends of the plain and
#: the stripped group tables: 0000 and 9999 at indices 0, 9999, 10000, 19999.
GROUP_ENDS = [0.99999999999999989, 1.0000000000000002, 0.10000000000000001,
              9999.9999999999982, 1.5, 1.9999]


def group_indices(value: float) -> set:
    """The group table indices of ``value``'s 17 digits, taken from its
    ``%.16e`` text: digits 2..17 as four groups, each in its stripped form
    (index + 10000) where only zeros follow it."""
    digits = ("%.16e" % abs(value))[2:18]
    groups = [int(digits[i:i + 4]) for i in range(0, 16, 4)]
    return {g + 10_000 * (int(digits[4 * j + 4:] or 0) == 0)
            for j, g in enumerate(groups)}


@pytest.mark.parametrize("value", GROUP_ENDS + [-v for v in GROUP_ENDS], ids=repr)
def test_group_table_ends(value):
    assert_matches_percent([value])


def test_group_table_ends_are_all_hit():
    hit = set().union(*map(group_indices, GROUP_ENDS))
    assert {0, 9999, 10_000, 19_999} <= hit


@pytest.mark.parametrize("fallback", [0.0, -0.0, 100.0, -120.0, np.inf, np.nan,
                                      5e-324, 1e300, 1e-12, 1e15])
def test_fallback_at_first_middle_and_last_row(fallback):
    size = 3 << 12
    values = 0.5 + np.arange(size) / 7e5
    for row in (0, size // 2, size - 1):
        values[row] = fallback
    assert_matches_percent(values)
    assert_matches_percent(values[size // 2:size // 2 + 1])


def test_write_csv_chunks_match_template_writer(tmp_path):
    size = 3 * cli._CSV_CHUNK + 5
    values = np.linspace(-2.0, 3e-5, size)
    values[[0, cli._CSV_CHUNK, size - 1]] = [np.nan, 100.0, -np.inf]
    columns = (np.arange(size, dtype=np.int64) - 7, 0.25, values, values * 1e9)
    out = tmp_path / "out.csv"
    cli._write_csv(out, "a,b,c,d", [columns])
    assert out.read_bytes() == ("a,b,c,d\n" + oracles.csv_rows(columns, size)).encode()


def test_cells_of_calls_on_one_work_stay_apart():
    # each call's cells are a new matrix: calls of other sizes on the same
    # work arrays, before and after, leave them as they were
    work = cells._cell_work(3000)
    columns = [np.linspace(-3.0, 7e-6, 3000), 0.5 + np.arange(17) / 7e5,
               np.array([1e-9, -2.5, np.nan]), np.geomspace(1e-11, 1e14, 2000)]
    kept = [cells._float_cells(c, work) for c in columns]
    for values, matrix in zip(columns, kept):
        assert texts(matrix) == ["%.17g" % v for v in values.tolist()]
        assert not any(np.shares_memory(matrix, a) for a in work)


def test_write_csv_last_short_chunk_on_reused_work(tmp_path, monkeypatch):
    # full chunks of wide cells (negative, "e-XX"), then a last chunk of
    # 2 rows of narrow ones: the writer's one work set leaves no bytes over
    monkeypatch.setattr(cli, "_CSV_CHUNK", 7)
    size = 3 * 7 + 2
    wide = -np.geomspace(1e-11, 3e-5, size)
    wide[-2:] = [0.75, 0.5]
    columns = (np.arange(size, dtype=np.int64), wide, np.abs(wide[::-1]) + 1.0)
    out = tmp_path / "out.csv"
    cli._write_csv(out, "i,a,b", [columns])
    assert out.read_bytes() == ("i,a,b\n" + oracles.csv_rows(columns, size)).encode()


def test_exponent_tables_match_the_fraction_form():
    # the kernel's decimal exponent table against the Fraction form, by
    # binade index v (see cells._SCALED): the exponent it gives the
    # mantissas at its ends and at either threshold, for every binade of a
    # finite double
    _, thresh, scale, _, _ = cells._tables()
    ks = scale[4].view(np.int64) - 324
    table = oracles.decimal_exponent_table(range(-1074, 1024))
    binades = [(2 * ef, ef - 1023) for ef in range(1, 2047)]
    binades += [(2 * (cells._SCALED + e), e - 1077) for e in range(3, 55)]
    for v, e2 in binades:
        j, t = table[e2]
        assert ks[v + 1] == ks[v] - 1 or thresh[v] <= 1 << 52  # the column m < thresh
        for m in {1 << 52, (1 << 53) - 1, t - 1, t, int(thresh[v]) - 1, int(thresh[v])}:
            if 1 << 52 <= m < 1 << 53:
                assert ks[v] - (m < thresh[v]) == j - (m < t), (e2, m)


def test_tables_built_on_first_use(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys\n"
             "import rieszgreedy.cli as cli\n"
             "from rieszgreedy import cells\n"
             "print(cells._tables.cache_info().currsize)\n"
             "cli.main(['figures', '--M', '12', '--out', sys.argv[1]])\n"
             "print(cells._tables.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    # no table at import, and figures builds the kernel's tables
    assert out.stdout.split() == ["0", "1"]


INT_EDGES = [0, 9, 10, 99, 100, (1 << 53) - 1, (1 << 63) - 1,
             *(10 ** k + d for k in range(1, 19) for d in (-1, 0, 1))]


def texts(cells: np.ndarray) -> list:
    return [row.tobytes().replace(b"\0", b"").decode() for row in cells]


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.integers(0, (1 << 63) - 1) | st.sampled_from(INT_EDGES),
                       min_size=1, max_size=300))
def test_int_cells_match_str(values):
    column = np.array(values, np.int64)
    assert texts(cli._int_cells(column)) == [str(v) for v in values]
    assert texts(cli._column_cells(column)) == [str(v) for v in values]


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1,
                       max_size=50), dtype=st.sampled_from([np.int64, np.int32]))
def test_int_columns_of_any_sign_match_str(values, dtype):
    # negative columns take the str route; int32 is widened
    values = [int(v) for v in np.array(values, np.int64).astype(dtype)]
    assert texts(cli._column_cells(np.array(values, dtype))) == [str(v) for v in values]


PERCENT_CELLS = [0.0, -0.0, 1.0, -3.0, 100.0, 2.0 ** 60, np.nan, np.inf, -np.inf,
                 1e300, -1e300, 5e-324, -5e-324]


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 600), block=st.integers(1, 40), chunk=st.integers(1, 300),
       panels=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       spliced=st.lists(st.sampled_from(PERCENT_CELLS) | st.floats(), max_size=12))
@example(size=256, block=1 << 15, chunk=100, panels=5, seed=1, spliced=PERCENT_CELLS)
# no drawn value takes %, and both spliced ones land in one column of one
# chunk: x (seed 653), panels 1, 3 and 5 (seeds 374, 359, 51)
@example(size=12, block=12, chunk=5, panels=5, seed=653, spliced=[0.0, -3.0])
@example(size=12, block=12, chunk=5, panels=5, seed=374, spliced=[np.nan, np.inf])
@example(size=12, block=12, chunk=5, panels=5, seed=359, spliced=[-np.inf, 100.0])
@example(size=12, block=12, chunk=5, panels=5, seed=51, spliced=[5e-324, -0.0])
def test_panel_rows_share_one_buffer(size, block, chunk, panels, seed, spliced):
    """The figures writer's shared row matrix writes each file as
    ``_csv_rows`` writes its x and value columns, on drawn columns with %
    fallback cells, over blocks and chunks of any size, the last chunk
    shorter."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-12, 16, size)
    columns = rng.standard_normal((panels + 1, size)) * scales
    for v in spliced:
        columns[rng.integers(panels + 1), rng.integers(size)] = v
    xs, values = columns[0], columns[1:]

    class Blocks:  # a scan that hands the drawn columns to the sink
        def __init__(self, m, checked):
            assert len(checked) == panels

        def run(self, sink):
            for start in range(0, size, block):
                sink(xs[start:start + block], list(values[:, start:start + block]))
            return []

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "GridScan", Blocks)
        mp.setattr(cli, "_CSV_CHUNK", chunk)
        paths = [Path(tmp) / f"p{k}.csv" for k in range(panels)]
        cli._write_panels(paths, 9, [("leja_offset", None)] * panels)
        x = cells._float_cells(xs)
        for path, v in zip(paths, values):
            rows = cli._csv_rows([x, cells._float_cells(v)], size)
            want = b"x,value\n" + rows.tobytes().translate(None, b"\0")
            assert path.read_bytes() == want


def spy_float_cells(monkeypatch) -> list:
    """Record the values of every :func:`cells._float_cells` call, each of
    which a writer passes its one set of work arrays."""
    calls, real, works = [], cells._float_cells, []

    def spy(values, work):
        calls.append(np.array(values, np.float64))
        works.append(work)
        assert all(w is works[0] for w in works)
        return real(values, work)

    monkeypatch.setattr(cells, "_float_cells", spy)
    return calls


def assert_same_bits(calls: list, want: list) -> None:
    assert len(calls) == len(want)
    for got, expected in zip(calls, want):
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_panels_format_each_chunk_in_one_call(tmp_path, monkeypatch):
    # blocks of 50 and chunks of 16 rows over the 128 points of order 8
    monkeypatch.setattr(limits, "_CHUNK", 50)
    monkeypatch.setattr(cli, "_CSV_CHUNK", 16)
    panels = [(target, s) for _, target, s in cli._FIGURES]
    blocks = []
    limits.GridScan(8, panels).run(lambda xs, values: blocks.append([xs, *values]))
    want = [np.concatenate([column[i:i + 16] for column in block])
            for block in blocks for i in range(0, block[0].size, 16)]
    calls = spy_float_cells(monkeypatch)
    cli._write_panels([tmp_path / f"p{k}.csv" for k in range(len(panels))], 8, panels)
    assert len(want) == 10
    assert_same_bits(calls, want)


def test_write_csv_formats_each_chunk_in_one_call(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_CHUNK", 4)
    count = 10
    a = np.linspace(0.1, 0.9, count)
    b = np.linspace(-3e5, 2e-7, count).astype(np.float32)
    columns = (np.arange(count), a, 0.5, [0.25] * count, -a / 3, b)
    calls = spy_float_cells(monkeypatch)
    out = tmp_path / "out.csv"
    cli._write_csv(out, "i,a,k,l,c,b", [columns])
    assert_same_bits(calls, [np.concatenate([a[i:i + 4], -a[i:i + 4] / 3,
                                             b[i:i + 4].astype(np.float64)])
                             for i in range(0, count, 4)])
    assert out.read_bytes() == ("i,a,k,l,c,b\n" + oracles.csv_rows(columns, count)).encode()
