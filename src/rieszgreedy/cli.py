"""Command-line front end: every computation in the library, emitted as
CSV (UTF-8, header row) plus a JSON run manifest.  One row writer writes
every CSV: each float as ``'%.17g' % v``, byte for byte, every other
value through ``str``.  A CSV below one :data:`_CSV_CHUNK` formats its
floats with ``%``; a longer one takes the numpy kernel of
:mod:`rieszgreedy.cells`, which it loads only then.

Each command is one :data:`_COMMANDS` entry: its help text, its runner
and its flags.  A runner takes the parsed flags and the ``--out`` path and
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
process over 1024 N near 2^24 (a ``large-n`` command) takes about 146 ms
of CPU on a 2-core x86-64 VM with Python 3.11 and
``PYTHONDONTWRITEBYTECODE=1``, so that it compiles what it loads
(medians of 40 fresh processes on one CPU): 44 ms to start the
interpreter, most of it ``site``, 68 ms to import numpy and the standard
modules, 7 ms to compile and run this module, 7 ms for the one
command's parser and the collector's first pass (see :func:`run`),
11 ms to load ``energy`` and ``special``, 2.5 ms for the energies, 2 ms
for the CSV and 6 ms to finalize.  So this module imports no layer, no
cell kernel (:mod:`rieszgreedy.cells`, about 5% more of such a process
where a CSV loads it: 2.9 ms against 59 ms, measured together on a
faster run of the same VM) and no ``fractions``, and each runner imports
what it calls when it runs.  ``eta`` loads
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
#: writer makes the work arrays of :func:`rieszgreedy.cells._float_cells`
#: once per call (12288 values a figures chunk), so a chunk makes one new
#: array, its cells: ``figures --M 20`` takes about 2.2k minor page faults
#: in the kernel.  Against 2^11 rows (11.4k faults in all, 38.0 MB peak),
#: a ``figures --M 20`` process ran 0.8% faster at 2^12 (16.8k, 40.0 MB)
#: and 1.8% slower at 2^13 (24.2k, 44.2 MB), medians of 12 runs on one
#: CPU.  Also the route of a CSV's floats: one whose first block is
#: shorter takes ``%`` and never loads the kernel, which costs a fresh
#: process about 2.9 ms before its first cell, what ``%`` takes for some
#: 8k values (see :func:`_csv_files` and :mod:`rieszgreedy.cells`).
_CSV_CHUNK = 1 << 11
_PANEL_HEADER = "x,value"  # the CSV header of scan and of each figures file

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


def _int_cells(values: np.ndarray) -> np.ndarray:
    """Each int64 value >= 0 as ``str(value)``, byte for byte, in a row of
    a uint8 matrix as wide as the largest, NUL in place of leading zeros."""
    powers = 10 ** np.arange(len(str(int(values.max()))) - 1, -1, -1, dtype=np.int64)
    lead = values[:, None] >= powers
    lead[:, -1] = True  # the units digit, also of 0
    return np.where(lead, values[:, None] // powers % 10 + ord("0"), 0).astype(np.uint8)


def _column_cells(part) -> np.ndarray:
    """One column's chunk as a NUL-padded uint8 cell matrix, one row per
    value: int arrays without a negative value through :func:`_int_cells`,
    every other value through ``str``, floats (in an array, a list or a
    constant column) as ``%.17g``.  The float arrays of a CSV of a chunk
    or more take :func:`rieszgreedy.cells._float_columns` instead."""
    if isinstance(part, np.ndarray) and part.dtype.kind == "i" and part.size:
        if part.min() >= 0:  # negative values take str
            return _int_cells(part.astype(np.int64, copy=False))
    if isinstance(part, np.ndarray):
        part = part.tolist()  # numpy scalars become Python's
    text = np.array(["%.17g" % v if isinstance(v, float) else str(v)
                     for v in part], "S")
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _percent_columns(columns: list) -> list:
    """The cell matrices of equal-length float columns, as row slices of
    one :func:`_column_cells` call over all of them, so all are as wide."""
    n = len(columns[0])
    cells = _column_cells(np.concatenate(columns))
    return [cells[i * n:(i + 1) * n] for i in range(len(columns))]


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
    file.  Per :data:`_CSV_CHUNK` rows, the float arrays are formatted in
    one call, the row matrix is laid once, and each file overwrites only
    its own value cells in it.  The first block picks that call for the
    whole CSV: :func:`_percent_columns` below one chunk, else
    :func:`rieszgreedy.cells._float_columns` on work arrays made once (no
    caller's first block is shorter than a chunk unless it is the only
    one).  Parts are renamed onto their paths at the end, each old file
    removed first (see :func:`_write_manifest`); on any error every file
    made is removed and the old files stay."""
    def write(columns):
        nonlocal float_columns
        count = next((len(c) for c in columns if not isinstance(c, (int, float))), 0)
        fused = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
        shared = len(columns) - len(files)
        if float_columns is None:
            if count < _CSV_CHUNK:
                float_columns = _percent_columns
            else:
                from . import cells as kernel
                work = kernel._cell_work(_CSV_CHUNK * (header.count(",") + len(paths)))
                float_columns = lambda parts: kernel._float_columns(parts, work)
        for start in range(0, count, _CSV_CHUNK):
            rows = min(_CSV_CHUNK, count - start)
            parts = [[c] if isinstance(c, (int, float)) else c[start:start + rows]
                     for c in columns]
            floats = iter(float_columns([p for p, f in zip(parts, fused) if f])
                          if any(fused) else ())
            cells = [next(floats) if f else _column_cells(p)
                     for p, f in zip(parts, fused)]
            row = _csv_rows(cells[:shared + 1], rows)
            for fh, cell in zip(files, cells[shared:]):
                row[:, -1 - cell.shape[1]:-1] = cell
                fh.write(row.tobytes().translate(None, b"\0"))

    made, files, float_columns = [], [], None
    try:
        with ExitStack() as stack:
            for path in paths:
                path.parent.mkdir(parents=True, exist_ok=True)
                part = path.with_name(path.name + ".part")
                files.append(stack.enter_context(open(part, "wb")))
                made.append(part)
                files[-1].write(header.encode() + b"\n")
            yield write
        for i, path in enumerate(paths):
            path.unlink(missing_ok=True)
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
    """Write the run manifest to ``path`` as a new file: an old one is
    removed first, as :func:`_csv_files` removes an old CSV.  Renaming a
    new file onto an old one, or truncating an old one to write it again,
    makes ext4 (``auto_da_alloc``) write the new data out at once: a
    re-run of ``figures --M 20`` into its old outputs took 1.5-1.6 s
    against 0.25 s fresh, and 0.26-0.28 s with the old files removed."""
    doc = {"command": command, "parameters": params, "version": __version__,
           "wall_time_seconds": time.perf_counter() - started,
           "outputs": [str(p) for p in outputs], "summary": summary,
           "status": status}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
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


#: Flags more than one command takes, as (flag, add_argument keywords).
_S = ("--s", {"type": float, "required": True})
_N = ("--N", {"type": int, "required": True})
_M = ("--M", {"type": int, "required": True})
_RANGE = ("--range", {"dest": "n_range", "type": str, "required": True})

#: Every command: its help text, its runner and its own flags, in
#: ``--help`` order.
_COMMANDS = {
    "eta": ("Normalized binary weight vector of one integer.", _run_eta, [_N]),
    "energy": ("Closed-form greedy energy over a range of sizes.", _run_energy,
               [_S, ("--N", {"type": int}),
                ("--range", {"dest": "n_range", "type": str})]),
    "tseq": ("Translated and scaled energy sequence.", _run_tseq, [_S, _RANGE]),
    "fseq": ("Translated and scaled extremal-potential sequence.", _run_fseq,
             [_S, _RANGE]),
    "scan": ("Exhaustive dyadic-grid scan of one limit function.", _run_scan,
             [_M, ("--target", {"choices": sorted(_SCAN_TARGETS), "default": "energy"}),
              ("--s", {"type": float, "default": None})]),
    "figures": ("Emit the five published scan panels as CSV files.", _run_figures,
                [("--M", {"type": int, "default": 16})]),
    "expansion-check": ("Exact energy against the multi-term expansion.",
                        _run_expansion_check, [_S, _RANGE]),
    "cesaro": ("Cesaro means of extremal-potential deviations.", _run_cesaro,
               [_S, _RANGE]),
    "oracle-verify": ("Brute-force greedy construction vs closed form.",
                      _run_oracle_verify,
                      [_S, _N, ("--tol", {"type": float, "default": 1e-7}),
                       ("--grid-bits", {"type": int, "default": 20})]),
    "identities": ("Parent-child grid identities up to order M.", _run_identities,
                   [_M, _S, ("--tol", {"type": float, "default": 1e-12})]),
}


def _build_parser(names=_COMMANDS) -> _Parser:
    """The parser of the commands in ``names``, all by default.  One
    command's subparser parses its argv as the full parser does, with the
    same help, errors and exit codes; :func:`main` builds only that one
    when its argv starts with a command (about 1.9 ms of CPU against the
    full parser's 3.1-4.0 ms, in a fresh process)."""
    parser = _Parser(prog="rieszgreedy",
                     description="Greedy Riesz-energy computations on the "
                                 "unit circle")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in names:
        help_text, runner, flags = _COMMANDS[name]
        columns = runner.header.replace(",", ", ")
        p = sub.add_parser(
            name, help=help_text, description=f"{help_text}  CSV columns: {columns}")
        p.add_argument("--out", type=Path, default=None,
                       help="output CSV path (figures: output directory)")
        # no effect; kept because perfbench/workloads._read_manifest fails
        # every benchmark check whose manifest lacks parameters.jobs == 1
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    first = next(iter(sys.argv[1:] if argv is None else argv), None)
    parser = _build_parser([first] if first in _COMMANDS else _COMMANDS)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR

    started = time.perf_counter()
    params = {k: (str(v) if isinstance(v, Path) else v)
              for k, v in vars(args).items() if k != "command"}
    command = args.command
    runner = _COMMANDS[command][1]
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
