"""Command-line front end: every computation in the library, emitted as
CSV (UTF-8, header row, 17-significant-digit decimals) plus a JSON run
manifest.

Exit codes: 0 success, 2 domain error (a flag value violates an
operation's precondition), 3 verification failure (oracle-verify or
identities beyond tolerance), 64 usage error, 74 unwritable output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .arith import leja_offset as _leja_offset
from .asymptotics import (cesaro_mean, expansion_energy, f_sequence,
                          t_sequence)
from .binary import binary_weights, decompose
from .energy import (EnergyParams, extremal_potential, greedy_energy,
                     greedy_oracle, prefix_energies)
from .limits import child_identities, scan_extremum
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


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range must look like A:B, got {text!r}")
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write the header line, then equal-length columns (sequences or numpy
    arrays) as CSV rows: floats with 17 significant digits, every other
    value through ``str``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    count = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for i in range(0, count, _CSV_CHUNK):
            cells = []
            for column in columns:
                part = column[i:i + _CSV_CHUNK]
                if hasattr(part, "tolist"):  # numpy scalars become Python's
                    part = part.tolist()
                cells.append([f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in part])
            fh.write("\n".join(map(",".join, zip(*cells, strict=True))) + "\n")


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
    lo, hi = (args.N, args.N) if args.N is not None else _parse_range(args.n_range)
    params = EnergyParams(args.s)
    rows = [(n, args.s, greedy_energy(n, params)) for n in range(lo, hi + 1)]
    _write_csv(out, "N,s,energy", *zip(*rows))
    return {"count": len(rows)}


def _run_tseq(args, out: Path):
    lo, hi = _parse_range(args.n_range)
    params = EnergyParams(args.s)
    rows = [(n, args.s, greedy_energy(n, params), t_sequence(n, args.s))
            for n in range(max(lo, 2), hi + 1)]
    _write_csv(out, "N,s,energy,T", *zip(*rows))
    values = [r[3] for r in rows]
    return {"count": len(rows), "min_T": min(values), "max_T": max(values)}


def _run_fseq(args, out: Path):
    lo, hi = _parse_range(args.n_range)
    params = EnergyParams(args.s)
    rows = [(n, args.s, extremal_potential(n, params), f_sequence(n, args.s))
            for n in range(max(lo, 1), hi + 1)]
    _write_csv(out, "N,s,potential,F", *zip(*rows))
    values = [r[3] for r in rows]
    return {"count": len(rows), "min_F": min(values), "max_F": max(values)}


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
    result = scan_extremum(args.M, _SCAN_TARGETS[args.target], args.s, jobs=args.jobs)
    _write_csv(out, "x,value", result.xs, result.values)
    return {"M": args.M, **_scan_summary(result)}


def _run_figures(args, out_dir: Path):
    outputs = []
    summary = {"M": args.M, "panels": {}}
    for name, target, s in _FIGURES:
        result = scan_extremum(args.M, target, s, jobs=args.jobs)
        path = out_dir / name
        _write_csv(path, "x,value", result.xs, result.values)
        outputs.append(path)
        summary["panels"][name] = _scan_summary(result)
    return outputs, summary


def _run_expansion_check(args, out: Path):
    lo, hi = _parse_range(args.n_range)
    params = EnergyParams(args.s)
    rows = []
    worst = 0.0
    for n in range(max(lo, 2), hi + 1):
        exact = greedy_energy(n, params)
        predicted = expansion_energy(n, args.s)
        rows.append((n, args.s, exact, predicted, exact - predicted))
        worst = max(worst, abs(exact - predicted) / max(1.0, abs(exact)))
    _write_csv(out, "N,s,exact,predicted,residual", *zip(*rows))
    return {"count": len(rows), "max_rel_residual": worst}


def _run_cesaro(args, out: Path):
    lo, hi = _parse_range(args.n_range)
    target = arclength_energy(args.s) / 2.0
    rows = []
    for n in range(max(lo, 1), hi + 1):
        mean = cesaro_mean(n, args.s)
        dev = mean - target
        if args.s == -1.0:
            scale = n / math.log(n) if n > 1 else 1.0
        elif args.s < -1.0:
            scale = float(n)
        else:
            scale = float(n) ** (-args.s)
        rows.append((n, args.s, mean, dev, dev * scale))
    _write_csv(out, "N,s,mean,deviation,scaled_deviation", *zip(*rows))
    return {"count": len(rows), "limit": target,
            "max_abs_scaled_deviation": max(abs(r[4]) for r in rows)}


def _run_oracle_verify(args, out: Path):
    params = EnergyParams(args.s)
    config, _ = greedy_oracle(args.N, params, grid_bits=args.grid_bits)
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
    except ValueError as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
