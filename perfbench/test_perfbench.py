"""Self-tests of the benchmark harness at tiny sizes (``figures --M 8``,
ranges of a few dozen n).  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


def tiny(name: str, seed: int, work: Path):
    return workloads.WORKLOADS[name](seed, work, **workloads.TINY[name])


@pytest.fixture
def work(tmp_path):
    return tmp_path / "work"


def test_benchmark_json_matches_harness():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layertrace.UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_printed_with_unit(name, trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(workloads.WORKLOADS, name, functools.partial(
        workloads.WORKLOADS[name], **workloads.TINY[name]))
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "failed_frac=0 " in lines[-2]
    assert json.loads(lines[-3].removeprefix("env "))["seed"] == 3
    assert not (ROOT / ".perfbench_work").exists()


def _corrupt_first_value(path: Path) -> None:
    """Change one digit of the last field of the first data row."""
    lines = path.read_text(encoding="utf-8").split("\n")
    head, _, value = lines[1].rpartition(",")
    i = next(i for i, c in enumerate(value) if c.isdigit() and c != "0" and i > 1)
    value = value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1:]
    lines[1] = f"{head},{value}"
    path.write_text("\n".join(lines), encoding="utf-8")


CORRUPTED = {"panels": "figures/fig2_energy_minus_half.csv",
             "sweep": "expansion.csv", "large-n": "energy_0.csv"}


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_digit_raises_failed_frac(name, work):
    commands = tiny(name, 5, work)
    first = commands[0]

    def corrupt_then_check():
        _corrupt_first_value(work / CORRUPTED[name])
        return first.check()

    commands[0] = workloads.Command(first.argv, first.rows, corrupt_then_check)
    result = run.run_pass(commands, run.child_env(SRC), work)
    assert result["attempted"] == len(commands)
    assert result["failed"] == 1, result["problems"]


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_cover_traced_wall(name, work):
    result = run.per_layer(tiny(name, 7, work), SRC, work)
    assert result["failed"] == 0, result["problems"]
    metrics = result["metrics"]
    layers = sum(metrics[f"{layer}.self_s"] for layer in
                 ("cli", "limits", "binary", "arith", "special", "asymptotics"))
    layers += metrics["energy.greedy_self_s"] + metrics["energy.roots_self_s"]
    # the spans cover the traced run; the reported self times are the
    # spans' self times less the wrappers' measured cost
    assert result["covered"] >= 0.95 * result["raw"]["traced_wall_s"]
    assert layers == pytest.approx(result["net"], rel=1e-9)
    assert 0 < result["net"] <= result["covered"]


def test_seed_picks_only_equal_work_inputs(work):
    for seed in range(20):
        sweep = workloads.sweep(seed, work)
        s_exp, s_t = float(sweep[0].argv[2]), float(sweep[1].argv[2])
        assert 3 < s_exp < 5 and -1 < s_t < 0
        assert [c.argv[4] for c in sweep] == ["2:16384"] * 2
        big = workloads.large_n(seed, work)
        lo, hi = map(int, big[0].argv[4].split(":"))
        assert hi - lo + 1 == 1024 and (1 << 24) - 1024 <= hi <= 1 << 24
        for cmd, (a, b) in zip(big, ((-1, 0), (0, 1), (3, 4))):
            s = float(cmd.argv[2])
            assert a < s < b and 2 * s != round(2 * s)
    assert workloads.sweep(1, work)[0].argv == workloads.sweep(1, work)[0].argv


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
