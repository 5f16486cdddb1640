"""Benchmark of the ``rieszgreedy`` command line, run from the repository root:

    python3 perfbench/run.py --workload panels --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each CLI command of the workload runs in a fresh
process, as users run it (``python -m rieszgreedy.cli``, default
``--jobs 1``, one process at a time), and the script is repeated until
``--seconds`` of command time has been measured.  Times are scaled to a
reference CPU speed measured while the commands run (see ``run_child``).
Every invocation's outputs are checked against ``refcheck``.  The last
stdout line is one JSON object with the end-to-end metrics, each a median
over the passes.

With ``--trace 1`` the script runs twice in this process through
``cli.main``: once plain and once with ``layertrace`` wrappers on the
layer boundaries; the last line then holds the per-layer metrics.

The package is imported from ``src/`` of the current directory; without it
the benchmark exits with status 2 and prints no result.  Outputs go to
``.perfbench_work/``, which is deleted on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import layertrace
import workloads

#: Fresh imports timed for ``setup_s`` before the first pass; one more
#: follows every pass, and the reported value is the median of all.
SETUP_REPEATS = 6

#: A running CLI process is paused every SLICE_S seconds for one run of the
#: calibration kernel on the same CPU, so each slice of command time is
#: scaled by the CPU speed measured right around it.
SLICE_S = 0.25
#: Seconds the calibration kernel takes on the reference CPU (2-core x86-64
#: VM, Python 3.11, numpy 2.4).  Time metrics are reported at that speed.
CAL_REF_S = 0.025

_ANGLES = np.linspace(0.001, 3.1, 1 << 17)
_FLOATS = [k / 7.0 for k in range(1, 12001)]

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "rows_per_s": "rows/s",
             "peak_rss_mb": "MB"}


def calibrate() -> float:
    """Seconds of a fixed kernel mixing the program's three kinds of work
    in about equal parts: exact ``Fraction`` arithmetic (sweep), 17-digit
    float formatting (CSV output) and numpy sin/pow over a 1 MB array
    (grid scans, roots energies)."""
    t0 = time.perf_counter()
    total = 0.0
    for k in range(1, 2001):
        total += float(Fraction(1 << (k % 24), 2 * k + 1) - Fraction(k, 1 << (k % 24)))
    ",".join(f"{v:.17g}" for v in _FLOATS)
    total += float(np.sum(np.sin(_ANGLES) ** -0.37))
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so the calibration
    measures the CPU the commands run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


@dataclass
class ChildRun:
    raw: float       # wall seconds the process ran, pauses excluded
    scaled: float    # the same at reference CPU speed
    code: int
    peak_mb: float   # ru_maxrss from wait4
    stderr: str


def run_child(args, env: dict, work: Path) -> ChildRun:
    """Run ``python *args`` in ``work`` to completion, pausing it with
    SIGSTOP every SLICE_S seconds to time the calibration kernel."""
    err_path = work / "stderr.txt"
    raw = scaled = 0.0
    cal = calibrate()
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=work, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            with os.fdopen(os.pidfd_open(proc.pid), "rb", buffering=0) as pidfd:
                while True:
                    exited = select.select([pidfd], [], [], SLICE_S)[0]
                    if not exited:
                        os.kill(proc.pid, signal.SIGSTOP)
                    stop = time.perf_counter()
                    _, status, usage = os.wait4(
                        proc.pid, 0 if exited else os.WUNTRACED)
                    after = calibrate()
                    raw += stop - start
                    scaled += (stop - start) * CAL_REF_S / (0.5 * (cal + after))
                    cal = after
                    if not os.WIFSTOPPED(status):
                        break
                    start = time.perf_counter()
                    os.kill(proc.pid, signal.SIGCONT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
    return ChildRun(raw, scaled, proc.returncode, usage.ru_maxrss / 1024.0, tail)


def _reset(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)


def run_pass(commands, env: dict, work: Path) -> dict:
    """One pass over the script, each command in a fresh
    ``python -m rieszgreedy.cli`` process, checking each output: wall
    seconds raw and scaled, rows written by passing commands, peak RSS,
    and the failures."""
    _reset(work)
    result = {"raw": 0.0, "wall": 0.0, "rows": 0, "peak": 0.0, "attempted": 0,
              "failed": 0, "problems": []}
    for cmd in commands:
        child = run_child(["-m", "rieszgreedy.cli", *cmd.argv], env, work)
        result["raw"] += child.raw
        result["wall"] += child.scaled
        result["peak"] = max(result["peak"], child.peak_mb)
        result["attempted"] += 1
        found = ([f"exit {child.code}: {child.stderr.strip()}"] if child.code != 0
                 else cmd.check())
        if found:
            result["failed"] += 1
            result["problems"].extend(f"{cmd.argv[0]}: {p}" for p in found)
        else:
            result["rows"] += cmd.rows
    return result


def end_to_end(commands, env: dict, work: Path, seconds: float) -> dict:
    """Set-up imports, then passes until ``seconds`` of raw command time is
    measured (at least one), with one more set-up import after each."""
    _reset(work)
    importing = ["-c", "import rieszgreedy.cli"]
    setups = [run_child(importing, env, work) for _ in range(SETUP_REPEATS)]
    passes = []
    while not passes or sum(p["raw"] for p in passes) < seconds:
        passes.append(run_pass(commands, env, work))
        setups.append(run_child(importing, env, work))
    if any(s.code != 0 for s in setups):
        raise RuntimeError(f"import rieszgreedy.cli failed: {setups[-1].stderr}")
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "setup_s": statistics.median(s.scaled for s in setups),
        "rows_per_s": statistics.median(p["rows"] / p["wall"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak"] for p in passes),
    }
    raw = {"raw_wall_s": statistics.median(p["raw"] for p in passes),
           "raw_setup_s": statistics.median(s.raw for s in setups),
           "passes": len(passes)}
    return {"metrics": metrics, "raw": raw,
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "problems": [x for p in passes for x in p["problems"]]}


def _outcome_problems(commands, outcomes) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for cmd, outcome in zip(commands, outcomes):
        found = ([f"returned {outcome!r}"] if outcome != 0 else cmd.check())
        if found:
            failed += 1
            problems.extend(f"{cmd.argv[0]}: {p}" for p in found)
    return failed, problems


def per_layer(commands, src: Path, work: Path) -> dict:
    """Plain then traced in-process pass; per-layer metrics from the
    traced one, overhead as the difference of their walls."""
    sys.path.insert(0, str(src))
    argvs = [cmd.argv for cmd in commands]
    _reset(work)
    plain_wall, plain_out = layertrace.run_commands(argvs)
    failed, problems = _outcome_problems(commands, plain_out)
    _reset(work)
    tracer = layertrace.Tracer()
    traced_wall, traced_out = tracer.run(argvs)
    more_failed, more = _outcome_problems(commands, traced_out)
    metrics = tracer.metrics(traced_wall - plain_wall)
    return {"metrics": metrics, "attempted": 2 * len(commands),
            "failed": failed + more_failed, "problems": problems + more,
            "raw": {"traced_wall_s": traced_wall, "plain_wall_s": plain_wall},
            "covered": tracer.covered_s(), "net": tracer.net_s()}


def environment(root: Path, args) -> dict:
    try:
        rev = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
            "git": rev, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "jobs": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "rieszgreedy" / "cli.py").is_file():
        print(f"perfbench: no rieszgreedy sources under {src}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    commands = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        if args.trace:
            result = per_layer(commands, src, work)
            units = layertrace.UNITS
        else:
            pin_to_one_cpu()
            result = end_to_end(commands, child_env(src), work, args.seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    print("env " + json.dumps(environment(root, args), sort_keys=True))
    print(f"{args.workload}: " + "  ".join(
        f"{name}={result['metrics'][name]:.6g} {units[name]}" for name in units)
        + f"  failed_frac={failed / attempted:.6g} ({failed}/{attempted})  "
        + "  ".join(f"{k}={v:.6g}" for k, v in result["raw"].items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
