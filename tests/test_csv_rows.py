"""The float cells of the CSV writers equal ``'%.17g' % v`` byte for byte
for every double: over random bit patterns, at the edges of the fast path
(its exponent range, powers of ten, exact rounding ties, whole numbers,
the byte columns each layout fills) and with the ``%`` fallback at any
row of a chunk.  Whole rows are held to
the % template writer of tests/oracles.py, and the figures writer's shared
row matrix to :func:`cli._csv_rows`; both writers format each chunk's
float columns in one call.  The int cells equal ``str(v)`` for every
int64 value."""

import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rieszgreedy import cli, limits

EXPONENT_FIELD = np.uint64(0x7FF << 52)


def cell_texts(values: np.ndarray) -> list:
    return [row.tobytes().replace(b"\0", b"").decode()
            for row in cli._float_cells(values)]


def assert_matches_percent(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    assert cell_texts(values) == ["%.17g" % v for v in values.tolist()]
    other = values[::-1].copy()
    rows = cli._csv_rows([cli._float_cells(values), cli._float_cells(other)],
                         values.size).tobytes().translate(None, b"\0")
    assert rows == oracles.csv_rows([values, other], values.size).encode()


@st.composite
def bit_patterns(draw) -> np.ndarray:
    """Random 64-bit patterns viewed as float64, a drawn share of them moved
    into the binades around the fast path's range [1e-11, 1e15), with
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


@settings(max_examples=60, deadline=None)
@given(values=bit_patterns())
def test_random_bit_patterns(values):
    assert_matches_percent(values)


def _neighbours(v: float) -> list:
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


EDGES = [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3,
         100.0, 1e14, 120.5, 9.9999999999999995e-05,
         *_neighbours(1e-11), *_neighbours(1e15),
         *(v for k in range(-11, 16) for v in _neighbours(float(Fraction(10) ** k)))]


@pytest.mark.parametrize("value", EDGES + [-v for v in EDGES], ids=repr)
def test_edge_values(value):
    assert_matches_percent([value])


#: Values at both ends of each of the fast path's layouts, as decimal
#: exponents k: -11 and -5 ("d.ddde-XX"), -4 and -1 ("0.000ddd"), 0 and
#: 14 ("ddd.ddd"); none a whole number, which would take %.
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
    ([1e-07], 23), ([1e-07, 0.75], 28), ([-1e-07, 1.5], 29), ([0.75, 100.0], 32)])
def test_cells_keep_the_columns_values_can_fill(values, width):
    assert cli._float_cells(np.array(values)).shape[1] == width
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
    work = cli._cell_work(3000)
    columns = [np.linspace(-3.0, 7e-6, 3000), 0.5 + np.arange(17) / 7e5,
               np.array([1e-9, -2.5, np.nan]), np.geomspace(1e-11, 1e14, 2000)]
    kept = [cli._float_cells(c, work) for c in columns]
    for values, cells in zip(columns, kept):
        assert texts(cells) == ["%.17g" % v for v in values.tolist()]
        assert not any(np.shares_memory(cells, a) for a in work)


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


def test_decimal_exponent_table_is_exact():
    _, kbase, thresh, _, _ = cli._float_tables()
    for e2 in range(-40, 51):
        ef = e2 + 1023
        t = int(thresh[ef])
        for m in (1 << 52, (1 << 53) - 1, t - 1, t):
            if 1 << 52 <= m < 1 << 53:
                k = int(kbase[ef]) - (m < t)
                v = Fraction(m) * Fraction(2) ** (e2 - 52)
                assert Fraction(10) ** k <= v < Fraction(10) ** (k + 1)


def test_tables_built_on_first_use():
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import rieszgreedy.cli as cli\n"
             "print(cli._float_tables.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


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
        x = cli._float_cells(xs)
        for path, v in zip(paths, values):
            rows = cli._csv_rows([x, cli._float_cells(v)], size)
            want = b"x,value\n" + rows.tobytes().translate(None, b"\0")
            assert path.read_bytes() == want


def spy_float_cells(monkeypatch) -> list:
    """Record the values of every :func:`cli._float_cells` call, each of
    which a writer passes its one set of work arrays."""
    calls, real, works = [], cli._float_cells, []

    def spy(values, work):
        calls.append(np.array(values, np.float64))
        works.append(work)
        assert all(w is works[0] for w in works)
        return real(values, work)

    monkeypatch.setattr(cli, "_float_cells", spy)
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
