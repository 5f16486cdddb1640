"""Command-line front end: every computation in the library, emitted as
CSV (UTF-8, header row, 17-significant-digit decimals) plus a JSON run
manifest.

Exit codes: 0 success, 2 domain error (a flag value violates an
operation's precondition, takes a result beyond the float range
(OverflowError), or leaves the brute-force oracle no finite potential),
3 verification failure (oracle-verify or identities beyond tolerance),
64 usage error, 74 unwritable output.

Ranges: ``--range A:B`` (and ``energy --N``) is clamped below to the
command's smallest N (1 for energy, fseq and cesaro, 2 for tseq and
expansion-check); a range left with no N, reaching 2^53, or holding more
than :data:`MAX_RANGE` N is a domain error.  Every range is computed as
arrays over N, one pass per command.  Energies over any N < 2^53 run in
O(bit-width) memory: the roots-of-unity energies they combine come from
their large-N expansion from N = 2^16 on.  ``identities --M`` goes up to
:data:`MAX_IDENTITY_ORDER`, ``oracle-verify --grid-bits`` up to
:data:`rieszgreedy.energy.ORACLE_MAX_GRID_BITS`.

Grids: ``figures`` and ``scan`` stream the order-M grid in blocks
(:class:`rieszgreedy.limits.GridScan`), in O(block) memory: ``figures``
evaluates its five panels on each block and writes them to their five
files in lockstep, formatting the x column they share once.

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
# unused here, but perfbench/layertrace.py patches these names on this module
from .asymptotics import expansion_energy, t_sequence  # noqa: F401
from .binary import binary_weights, decompose
from .energy import (EnergyParams, extremal_potentials, greedy_energies,
                     greedy_energy, greedy_oracle, prefix_energies)
from .limits import GridScan, child_identities
# unused here, but perfbench/layertrace.py patches this name on this module
from .limits import scan_extremum  # noqa: F401
from .special import arclength_energy

USAGE_ERROR = 64
OUTPUT_ERROR = 74
DOMAIN_ERROR = 2
VERIFY_ERROR = 3

_SCAN_TARGETS = {
    "energy": "energy_form",
    "log-kernel": "log_kernel_form",
    "offset": "leja_offset",
}

_FIGURES = (
    ("fig1_offset.csv", "leja_offset", None),
    ("fig2_energy_minus_half.csv", "energy_form", -0.5),
    ("fig3_energy_one_third.csv", "energy_form", 1.0 / 3.0),
    ("fig4_energy_seven_halves.csv", "energy_form", 3.5),
    ("fig5_log_kernel.csv", "log_kernel_form", None),
)

_CSV_CHUNK = 1 << 10  # rows formatted per write; bounds the strings held

#: Most N one range command takes.  expansion-check, which holds the most
#: arrays over N, peaks at 177 MB over 2^20 N (610 MB over 2^22).
MAX_RANGE = 1 << 20
#: Highest identities order: 2^M - 1 rows at about 1 ms each.
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


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range must look like A:B, got {text!r}")


def _range_ns(lo: int, hi: int, smallest: int) -> np.ndarray:
    """The integers max(lo, smallest) .. hi as int64."""
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
    panel k as ``x,value`` CSV to ``paths[k]``, block by block: each
    chunk's x column is formatted once for all files.  Nothing is opened
    before the panels are checked, and every file is closed on every
    path.  Returns each panel's :class:`~rieszgreedy.limits.ScanResult`
    (without the grid arrays)."""
    scan = GridScan(m, panels)
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", encoding="utf-8", newline=""))
                 for p in paths]
        for fh in files:
            fh.write("x,value\n")

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
    doc = {
        "command": command,
        "parameters": params,
        "version": __version__,
        "wall_time_seconds": time.perf_counter() - started,
        "outputs": [str(p) for p in outputs],
        "summary": summary,
        "status": status,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rieszgreedy",
                     description="Greedy Riesz-energy computations on the "
                                 "unit circle")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, csv_schema):
        p = sub.add_parser(name, help=help_text,
                           description=f"{help_text}  CSV columns: {csv_schema}")
        p.add_argument("--out", type=Path, default=None,
                       help="output CSV path (figures: output directory)")
        # no effect; kept because perfbench/workloads._read_manifest fails
        # every benchmark check whose manifest lacks parameters.jobs == 1
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        return p

    p = add("eta", "Normalized binary weight vector of one integer.",
            "k, exponent, numerator, denominator, weight")
    p.add_argument("--N", type=int, required=True)

    p = add("energy", "Closed-form greedy energy over a range of sizes.",
            "N, s, energy")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--N", type=int)
    p.add_argument("--range", dest="n_range", type=str)

    p = add("tseq", "Translated and scaled energy sequence.",
            "N, s, energy, T")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--range", dest="n_range", type=str, required=True)

    p = add("fseq", "Translated and scaled extremal-potential sequence.",
            "N, s, potential, F")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--range", dest="n_range", type=str, required=True)

    p = add("scan", "Exhaustive dyadic-grid scan of one limit function.",
            "x, value")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--target", choices=sorted(_SCAN_TARGETS), default="energy")
    p.add_argument("--s", type=float, default=None)

    p = add("figures", "Emit the five published scan panels as CSV files.",
            "x, value (per file)")
    p.add_argument("--M", type=int, default=16)

    p = add("expansion-check", "Exact energy against the multi-term expansion.",
            "N, s, exact, predicted, residual")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--range", dest="n_range", type=str, required=True)

    p = add("cesaro", "Cesaro means of extremal-potential deviations.",
            "N, s, mean, deviation, scaled_deviation")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--range", dest="n_range", type=str, required=True)

    p = add("oracle-verify", "Brute-force greedy construction vs closed form.",
            "N, s, oracle_energy, formula_energy, rel_gap")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--grid-bits", type=int, default=20)

    p = add("identities", "Parent-child grid identities up to order M.",
            "M, n, s, lhs_odd, rhs_odd, lhs_even, rhs_even")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)

    return parser


def _run_eta(args, out: Path):
    n = args.N
    w = binary_weights(n)
    exps = decompose(n).exponents
    rows = [(k + 1, e, t.numerator, t.denominator, float(t))
            for k, (e, t) in enumerate(zip(exps, w.components))]
    _write_csv(out, "k,exponent,numerator,denominator,weight", *zip(*rows))
    return {"N": n, "bit_count": len(exps)}


def _run_energy(args, out: Path):
    if (args.N is None) == (args.n_range is None):
        raise ValueError("give exactly one of --N or --range")
    params = EnergyParams(args.s)
    lo, hi = (args.N, args.N) if args.N is not None else _parse_range(args.n_range)
    ns = _range_ns(lo, hi, 1)
    energies = greedy_energies(ns, params)
    _write_csv(out, "N,s,energy", ns, args.s, energies)
    return {"count": ns.size}


def _run_tseq(args, out: Path):
    params = EnergyParams(args.s)
    ns = _range_ns(*_parse_range(args.n_range), 2)
    energies = greedy_energies(ns, params)
    values = t_from_energies(ns, energies, args.s)
    _write_csv(out, "N,s,energy,T", ns, args.s, energies, values)
    return {"count": ns.size, "min_T": float(values.min()),
            "max_T": float(values.max())}


def _run_fseq(args, out: Path):
    params = EnergyParams(args.s)
    ns = _range_ns(*_parse_range(args.n_range), 1)
    potentials = extremal_potentials(ns, params)
    values = f_from_potentials(ns, potentials, args.s)
    _write_csv(out, "N,s,potential,F", ns, args.s, potentials, values)
    return {"count": ns.size, "min_F": float(values.min()),
            "max_F": float(values.max())}


def _scan_summary(result) -> dict:
    summary = {
        "target": result.target,
        "s": result.s,
        "orientation": result.orientation,
        "extremum": result.extremum,
        "arg_x": f"{result.arg.numerator}/{result.arg.denominator}",
        "arg_x_float": float(result.arg),
    }
    if result.error_bound is not None:
        summary["error_bound"] = result.error_bound
    return summary


def _run_scan(args, out: Path):
    (result,) = _write_panels([out], args.M, [(_SCAN_TARGETS[args.target], args.s)])
    return {"M": args.M, **_scan_summary(result)}


def _run_figures(args, out_dir: Path):
    outputs = [out_dir / name for name, _, _ in _FIGURES]
    results = _write_panels(outputs, args.M, [(t, s) for _, t, s in _FIGURES])
    panels = {path.name: _scan_summary(r) for path, r in zip(outputs, results)}
    return outputs, {"M": args.M, "panels": panels}


def _run_expansion_check(args, out: Path):
    params = EnergyParams(args.s)
    ns = _range_ns(*_parse_range(args.n_range), 2)
    exact = greedy_energies(ns, params)
    predicted = expansion_energies(ns, args.s)
    residual = exact - predicted
    _write_csv(out, "N,s,exact,predicted,residual", ns, args.s,
               exact, predicted, residual)
    worst = np.abs(residual) / np.maximum(1.0, np.abs(exact))
    return {"count": ns.size, "max_rel_residual": float(worst.max())}


def _run_cesaro(args, out: Path):
    ns = _range_ns(*_parse_range(args.n_range), 1)
    means = cesaro_means(ns, args.s)
    target = arclength_energy(args.s) / 2.0
    deviations = means - target
    scaled = deviations * cesaro_scales(ns, args.s)
    _write_csv(out, "N,s,mean,deviation,scaled_deviation", ns, args.s,
               means, deviations, scaled)
    return {"count": ns.size, "limit": target,
            "max_abs_scaled_deviation": float(np.abs(scaled).max())}


def _run_oracle_verify(args, out: Path):
    params = EnergyParams(args.s)
    try:
        config, _ = greedy_oracle(args.N, params, grid_bits=args.grid_bits)
    except RuntimeError as exc:  # no finite potential left on the grid
        raise ValueError(f"the brute-force oracle failed at s = {args.s}: "
                         f"{exc}") from exc
    oracle = prefix_energies(config, params)
    rows = []
    worst = 0.0
    for n in range(2, args.N + 1):
        formula = greedy_energy(n, params)
        gap = abs(oracle[n - 1] - formula) / max(1.0, abs(formula))
        worst = max(worst, gap)
        rows.append((n, args.s, oracle[n - 1], formula, gap))
    _write_csv(out, "N,s,oracle_energy,formula_energy,rel_gap", *zip(*rows))
    return {"max_rel_gap": worst, "tol": args.tol}, worst <= args.tol


def _run_identities(args, out: Path):
    if args.M > MAX_IDENTITY_ORDER:
        raise ValueError(f"order M = {args.M} exceeds {MAX_IDENTITY_ORDER}")
    rows = []
    worst = 0.0
    for m in range(1, args.M + 1):
        for n in range(1 << (m - 1)):
            (l1, r1), (l2, r2) = child_identities(m, n, args.s)
            worst = max(worst, abs(l1 - r1), abs(l2 - r2))
            rows.append((m, n, args.s, l1, r1, l2, r2))
    _write_csv(out, "M,n,s,lhs_odd,rhs_odd,lhs_even,rhs_even", *zip(*rows))
    return {"max_mismatch": worst, "tol": args.tol}, worst <= args.tol


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

    try:
        if command == "figures":
            out_dir = args.out if args.out is not None else Path("figures")
            outputs, summary = _run_figures(args, out_dir)
            _write_manifest(out_dir / "manifest.json", command, params,
                            outputs, summary, "ok", started)
            return 0

        out = args.out if args.out is not None else Path(f"{command}.csv")
        manifest = out.with_name(out.name + ".manifest.json")
        runner = {
            "eta": _run_eta,
            "energy": _run_energy,
            "tseq": _run_tseq,
            "fseq": _run_fseq,
            "scan": _run_scan,
            "expansion-check": _run_expansion_check,
            "cesaro": _run_cesaro,
        }.get(command)
        if runner is not None:
            summary = runner(args, out)
            _write_manifest(manifest, command, params, [out], summary,
                            "ok", started)
            return 0

        verifier = {"oracle-verify": _run_oracle_verify,
                    "identities": _run_identities}[command]
        summary, passed = verifier(args, out)
        _write_manifest(manifest, command, params, [out], summary,
                        "ok" if passed else "verification-failed", started)
        if not passed:
            print(f"{command}: verification failed: {summary}", file=sys.stderr)
            return VERIFY_ERROR
        return 0
    except OSError as exc:
        print(f"{command}: cannot write output: {exc}", file=sys.stderr)
        return OUTPUT_ERROR
    except (ValueError, OverflowError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
