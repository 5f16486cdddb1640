"""The benchmark's workloads: fixed scripts of ``rieszgreedy`` CLI commands,
each with a checker that compares the command's CSV and manifest against
``refcheck``.

The seed picks only what keeps the work of a run constant: s values
inside a stated equal-work interval, the n window of ``large-n``, and the
rows sampled for the check.  Sizes are keyword arguments so the
self-tests can run the same scripts small.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refcheck

#: The five published panels, as ``figures`` writes them.
PANELS = (
    ("fig1_offset.csv", "leja_offset", None),
    ("fig2_energy_minus_half.csv", "energy_form", -0.5),
    ("fig3_energy_one_third.csv", "energy_form", 1.0 / 3.0),
    ("fig4_energy_seven_halves.csv", "energy_form", 3.5),
    ("fig5_log_kernel.csv", "log_kernel_form", None),
)

#: Rows checked against the reference per output file, besides the first,
#: the last and (for panels) the extremal row.
SAMPLED_ROWS = 48


@dataclass(frozen=True)
class Command:
    """One CLI invocation: arguments after ``rieszgreedy``, the CSV data
    rows it must write, and a check returning a list of problems."""

    argv: tuple[str, ...]
    rows: int
    check: Callable[[], list[str]]


def _pick_s(rng: random.Random, lo: float, hi: float) -> float:
    """An s in (lo, hi) with three decimals and 2s not an integer, so the
    power kernels never hit numpy's special-cased exponents."""
    while True:
        s = round(rng.uniform(lo, hi), 3)
        if lo < s < hi and 2 * s != round(2 * s):
            return s


def _sample(rng: random.Random, count: int) -> list[int]:
    picks = set(rng.sample(range(count), min(SAMPLED_ROWS, count)))
    return sorted(picks | {0, count - 1})


def _read_csv(path: Path, header: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_manifest(path: Path, command: str, problems: list[str]) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("command") != command or doc.get("status") != "ok":
        problems.append(f"{path.name}: command {doc.get('command')!r}, "
                        f"status {doc.get('status')!r}")
    if doc.get("parameters", {}).get("jobs") != 1:
        problems.append(f"{path.name}: jobs is not 1")
    return doc


def _guarded(check: Callable[[], list[str]]) -> Callable[[], list[str]]:
    """A missing or unreadable output is a failed check, not a crash."""
    def run() -> list[str]:
        try:
            return check()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{type(exc).__name__}: {exc}"]
    return run


# -- panels ---------------------------------------------------------------

def panels(seed: int, work: Path, m: int = 20) -> list[Command]:
    """``figures --M m``: five full grid scans written as CSV."""
    rng = random.Random(seed)
    out = work / "figures"
    count = 1 << (m - 1)
    picks = {name: _sample(rng, count) for name, _, _ in PANELS}

    def check() -> list[str]:
        problems: list[str] = []
        doc = _read_manifest(out / "manifest.json", "figures", problems)
        summary = doc["summary"]["panels"]
        ns = (1 << m) + 1 + 2 * np.arange(count, dtype=np.int64)
        for name, target, s in PANELS:
            data = _read_csv(out / name, "x,value")
            if data.shape != (count, 2):
                problems.append(f"{name}: {data.shape[0]} rows, expected {count}")
                continue
            xs, values = data[:, 0], data[:, 1]
            if not np.array_equal(xs, float(1 << m) / ns.astype(float)):
                problems.append(f"{name}: x column is not 2^M/N over odd N")
            if not np.all(np.isfinite(values)):
                problems.append(f"{name}: non-finite values")
            minimize = target == "energy_form" and 0.0 < s < 1.0
            extremum = float(values.min() if minimize else values.max())
            panel = summary[name]
            if (panel["extremum"] != extremum
                    or panel["orientation"] != ("min" if minimize else "max")
                    or panel["target"] != target or panel["s"] != s):
                problems.append(f"{name}: manifest {panel} disagrees with the "
                                f"column {'min' if minimize else 'max'} {extremum!r}")
            arg = int(np.nonzero(values == extremum)[0][-1])
            for i in sorted(set(picks[name]) | {arg}):
                n = round((1 << m) / xs[i])  # x = 2^M / N recovers N exactly
                if n != ns[i] or float(1 << m) / n != xs[i]:
                    problems.append(f"{name}: row {i} x={xs[i]!r} is not 2^M/{ns[i]}")
                    continue
                ref = refcheck.panel_value(target, s, n)
                if abs(values[i] - ref) > refcheck.PANEL_ABS_TOL * max(1.0, abs(ref)):
                    problems.append(f"{name}: N={n} value {values[i]!r}, "
                                    f"reference {ref!r}")
        return problems

    argv = ("figures", "--M", str(m), "--out", str(out))
    return [Command(argv, len(PANELS) * count, _guarded(check))]


# -- energies over n -------------------------------------------------------

def _check_energy_table(path: Path, header: str, command: str, s: float,
                        lo: int, hi: int, picks: list[int],
                        roots: refcheck.RootsReference,
                        extra: Callable[[np.ndarray, dict, list[str]], None]
                        ) -> list[str]:
    """Checks shared by the per-n tables (N, s, energy, ...): the manifest,
    the row count, the N and s columns, finiteness, and the sampled
    energies against the reference; ``extra`` adds the command's own."""
    problems: list[str] = []
    doc = _read_manifest(path.with_name(path.name + ".manifest.json"),
                         command, problems)
    data = _read_csv(path, header)
    count = hi - lo + 1
    if data.shape[0] != count or doc["summary"].get("count") != count:
        return problems + [f"{path.name}: {data.shape[0]} rows, manifest count "
                           f"{doc['summary'].get('count')}, expected {count}"]
    if not np.array_equal(data[:, 0], np.arange(lo, hi + 1, dtype=float)):
        problems.append(f"{path.name}: N column is not {lo}..{hi}")
    if not np.all(data[:, 1] == s):
        problems.append(f"{path.name}: s column is not {s!r}")
    if not np.all(np.isfinite(data)):
        problems.append(f"{path.name}: non-finite values")
    for i in picks:
        n = lo + i
        got = data[i, 2]
        ref = roots.greedy_energy(n)
        if abs(got - ref) > refcheck.ENERGY_REL_TOL * abs(ref):
            problems.append(f"{path.name}: N={n} energy {got!r}, reference "
                            f"{float(ref)!r}")
    extra(data, doc, problems)
    return problems


def sweep(seed: int, work: Path, hi: int = 16384) -> list[Command]:
    """``expansion-check`` with s in (3, 5) and ``tseq`` with s in (-1, 0),
    both over 2..hi."""
    rng = random.Random(seed)
    s_exp = _pick_s(rng, 3.0, 5.0)
    s_t = _pick_s(rng, -1.0, 0.0)
    lo, count = 2, hi - 1
    exp_out, t_out = work / "expansion.csv", work / "tseq.csv"
    exp_picks, t_picks = _sample(rng, count), _sample(rng, count)
    exp_roots, t_roots = refcheck.RootsReference(s_exp), refcheck.RootsReference(s_t)
    cont = refcheck.arclength_energy(s_t)

    def residual_identity(data: np.ndarray, doc: dict, problems: list[str]) -> None:
        exact, predicted, residual = data[:, 2], data[:, 3], data[:, 4]
        if not np.array_equal(residual, exact - predicted):
            problems.append("expansion.csv: residual != exact - predicted")
        worst = float(np.max(np.abs(residual) / np.maximum(1.0, np.abs(exact))))
        if doc["summary"]["max_rel_residual"] != worst:
            problems.append("expansion.csv: manifest max_rel_residual "
                            f"{doc['summary']['max_rel_residual']!r} != {worst!r}")

    def t_values(data: np.ndarray, doc: dict, problems: list[str]) -> None:
        if (doc["summary"]["min_T"] != data[:, 3].min()
                or doc["summary"]["max_T"] != data[:, 3].max()):
            problems.append("tseq.csv: manifest min_T/max_T disagree with the column")
        eps = float(np.finfo(float).eps)
        for i in t_picks:
            n = lo + i
            e = t_roots.greedy_energy(n)
            scale = float(n) ** (1.0 + s_t)
            ref = float((e - cont * n * n) / refcheck.LD(scale))
            tol = refcheck.T_ULPS * eps * float(abs(e) + abs(cont) * n * n) / scale
            if abs(data[i, 3] - ref) > tol:
                problems.append(f"tseq.csv: N={n} T {data[i, 3]!r}, reference {ref!r}")

    def check_exp() -> list[str]:
        return _check_energy_table(exp_out, "N,s,exact,predicted,residual",
                                   "expansion-check", s_exp, lo, hi, exp_picks,
                                   exp_roots, residual_identity)

    def check_t() -> list[str]:
        return _check_energy_table(t_out, "N,s,energy,T", "tseq", s_t, lo, hi,
                                   t_picks, t_roots, t_values)

    rng_text = f"{lo}:{hi}"
    return [
        Command(("expansion-check", "--s", str(s_exp), "--range", rng_text,
                 "--out", str(exp_out)), count, _guarded(check_exp)),
        Command(("tseq", "--s", str(s_t), "--range", rng_text, "--out", str(t_out)),
                count, _guarded(check_t)),
    ]


def large_n(seed: int, work: Path, top_bits: int = 24,
            width: int = 1024) -> list[Command]:
    """``energy --range W:W+width-1`` for three s (one each in (-1, 0),
    (0, 1) and (3, 4)), with the window top in [2^top_bits - width,
    2^top_bits]: every n then has the same high bits set, so each s needs
    the same roots energies up to 2^top_bits."""
    rng = random.Random(seed)
    top = (1 << top_bits) - rng.randint(0, width)
    lo = top - width + 1
    commands = []
    for i, (a, b) in enumerate(((-1.0, 0.0), (0.0, 1.0), (3.0, 4.0))):
        s = _pick_s(rng, a, b)
        out = work / f"energy_{i}.csv"
        picks = _sample(rng, width)
        roots = refcheck.RootsReference(s)

        def check(out=out, s=s, picks=picks, roots=roots) -> list[str]:
            return _check_energy_table(out, "N,s,energy", "energy", s, lo, top,
                                       picks, roots, lambda data, doc, problems: None)

        commands.append(Command(("energy", "--s", str(s), "--range", f"{lo}:{top}",
                                 "--out", str(out)), width, _guarded(check)))
    return commands


WORKLOADS = {"panels": panels, "sweep": sweep, "large-n": large_n}

#: Sizes for the self-tests: the same scripts, small enough to run in seconds.
TINY = {"panels": {"m": 8}, "sweep": {"hi": 64}, "large-n": {"top_bits": 8, "width": 16}}
