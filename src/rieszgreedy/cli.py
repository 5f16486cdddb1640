"""Command-line front end: every computation in the library, emitted as
CSV (UTF-8, header row, 17-significant-digit decimals) plus a JSON run
manifest.

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

Flag values may start with '-': ``--s -inf`` and ``--range -3:0`` are
values, not options.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from contextlib import ExitStack
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (cesaro_means, cesaro_scales, expansion_energies,
                          f_from_potentials, t_from_energies)
from .binary import binary_weights, decompose
from .energy import (EnergyParams, extremal_potentials, greedy_energies,
                     greedy_oracle, prefix_energies)
from .limits import GridScan, child_identities
from .special import arclength_energy
# unused here, but perfbench/layertrace.py patches these names on this module
from .asymptotics import expansion_energy, t_sequence  # noqa: F401
from .energy import greedy_energy  # noqa: F401
from .limits import scan_extremum  # noqa: F401

USAGE_ERROR = 64
OUTPUT_ERROR = 74
DOMAIN_ERROR = 2
VERIFY_ERROR = 3

_SCAN_TARGETS = {"energy": "energy_form", "log-kernel": "log_kernel_form",
                 "offset": "leja_offset"}

_FIGURES = (
    ("fig1_offset.csv", "leja_offset", None),
    ("fig2_energy_minus_half.csv", "energy_form", -0.5),
    ("fig3_energy_one_third.csv", "energy_form", 1.0 / 3.0),
    ("fig4_energy_seven_halves.csv", "energy_form", 3.5),
    ("fig5_log_kernel.csv", "log_kernel_form", None),
)

_CSV_CHUNK = 1 << 10  # rows formatted per write; bounds the strings held
_PANEL_HEADER = "x,value"  # the CSV header of scan and of each figures file

#: Most N one range command takes.  expansion-check, which holds the most
#: arrays over N, peaks at 177 MB over 2^20 N (610 MB over 2^22).
MAX_RANGE = 1 << 20
#: Highest identities order: caps the 2^M - 1 rows held as arrays (6.9 MB CSV at 16).
MAX_IDENTITY_ORDER = 16


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


def _cell(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _cells(part) -> tuple[str, object]:
    """One column's chunk as a conversion of the row template and its
    arguments, by the one formatting rule: floats with 17 significant
    digits, every other value through ``str``.  A float array keeps its
    values for ``%.17g``; other columns are formatted cell by cell; a
    single int or float is a constant column, whose one cell is the
    conversion itself (arguments None)."""
    if isinstance(part, (int, float)):
        return _cell(part).replace("%", "%%"), None
    if isinstance(part, np.ndarray):
        if part.dtype.kind == "f":
            return "%.17g", part.tolist()
        part = part.tolist()  # numpy scalars become Python's
    return "%s", list(map(_cell, part))


def _format_rows(cells: list, rows: int) -> str:
    """``rows`` CSV rows from the columns' :func:`_cells`, with one %
    template for the chunk."""
    args = [a for _, a in cells if a is not None]
    template = ",".join(conv for conv, _ in cells) + "\n"
    return (template * rows) % tuple(chain.from_iterable(zip(*args, strict=True)))


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write the header line, then equal-length columns (sequences or numpy
    arrays, or a single int or float for a constant column) as CSV rows:
    floats with 17 significant digits, every other value through
    ``str``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    sized = [c for c in columns if not isinstance(c, (int, float))]
    count = len(sized[0]) if sized else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for i in range(0, count, _CSV_CHUNK):
            rows = min(_CSV_CHUNK, count - i)
            fh.write(_format_rows(
                [_cells(c if isinstance(c, (int, float)) else c[i:i + rows])
                 for c in columns], rows))


def _write_panels(paths: list, m: int, panels) -> list:
    """Scan the order-m grid once for every (target, s) panel and write
    panel k as :data:`_PANEL_HEADER` CSV to ``paths[k]``, block by block:
    each chunk's x column is formatted once for all files.  Nothing is
    opened before the panels are checked, and every file is closed on
    every path.  Returns each panel's :class:`~rieszgreedy.limits.ScanResult`
    (without the grid arrays)."""
    scan = GridScan(m, panels)
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", encoding="utf-8", newline=""))
                 for p in paths]
        for fh in files:
            fh.write(_PANEL_HEADER + "\n")

        def write_block(xs, values):
            for i in range(0, xs.size, _CSV_CHUNK):
                rows = min(_CSV_CHUNK, xs.size - i)
                conv, args = _cells(xs[i:i + rows])
                x = ("%s", list(map(conv.__mod__, args)))
                for fh, column in zip(files, values):
                    fh.write(_format_rows([x, _cells(column[i:i + rows])], rows))

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
    n = args.N
    w = binary_weights(n)
    exps = decompose(n).exponents
    rows = [(k + 1, e, t.numerator, t.denominator, float(t))
            for k, (e, t) in enumerate(zip(exps, w.components))]
    return zip(*rows), {"N": n, "bit_count": len(exps)}, True


@_table("N,s,energy")
def _run_energy(args):
    if (args.N is None) == (args.n_range is None):
        raise ValueError("give exactly one of --N or --range")
    params = EnergyParams(args.s)
    ns = _range_ns(args, 1)
    return (ns, args.s, greedy_energies(ns, params)), {"count": ns.size}, True


@_table("N,s,energy,T")
def _run_tseq(args):
    params = EnergyParams(args.s)
    ns = _range_ns(args, 2)
    energies = greedy_energies(ns, params)
    values = t_from_energies(ns, energies, args.s)
    return (ns, args.s, energies, values), {
        "count": ns.size, "min_T": float(values.min()),
        "max_T": float(values.max())}, True


@_table("N,s,potential,F")
def _run_fseq(args):
    params = EnergyParams(args.s)
    ns = _range_ns(args, 1)
    potentials = extremal_potentials(ns, params)
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
    params = EnergyParams(args.s)
    ns = _range_ns(args, 2)
    exact = greedy_energies(ns, params)
    predicted = expansion_energies(ns, args.s)
    residual = exact - predicted
    worst = np.abs(residual) / np.maximum(1.0, np.abs(exact))
    return (ns, args.s, exact, predicted, residual), {
        "count": ns.size, "max_rel_residual": float(worst.max())}, True


@_table("N,s,mean,deviation,scaled_deviation")
def _run_cesaro(args):
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
    params = EnergyParams(args.s)
    try:
        config, _ = greedy_oracle(args.N, params, grid_bits=args.grid_bits)
    except RuntimeError as exc:  # no finite potential left on the grid
        raise ValueError(f"the brute-force oracle failed at s = {args.s}: "
                         f"{exc}") from exc
    ns = np.arange(2, args.N + 1)
    oracle = np.array(prefix_energies(config, params)[1:])
    formula = greedy_energies(ns, params)
    gaps = np.abs(oracle - formula) / np.maximum(1.0, np.abs(formula))
    worst = float(gaps.max())
    return ((ns, args.s, oracle, formula, gaps),
            {"max_rel_gap": worst, "tol": args.tol}, worst <= args.tol)


@_table("M,n,s,lhs_odd,rhs_odd,lhs_even,rhs_even")
def _run_identities(args):
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
