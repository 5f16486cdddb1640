"""Every CSV command writes through one block path: a range command
computes and writes ``cli._RANGE_BLOCK`` N at a time, and every CSV is
written as ``<out>.part``, renamed onto ``<out>`` only when complete.
These tests hold the block edges to the bytes of one block, a failed run
to no file, and a range command's peak memory to that of a short range."""

import argparse
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import rieszgreedy
from rieszgreedy import cli
from rieszgreedy.cli import main

#: One argv per range command, its range 58 N, or 9 blocks of 7 N.
RANGE_ARGVS = {
    "energy": ["energy", "--s", "0.5", "--range", "0:58"],
    "tseq": ["tseq", "--s", "0.5", "--range", "0:59"],
    "fseq": ["fseq", "--s", "-0.5", "--range", "1:58"],
    "expansion-check": ["expansion-check", "--s", "3.7", "--range", "2:59"],
    "cesaro": ["cesaro", "--s", "-0.5", "--range", "-3:58"],
}


def run(argv, out: Path):
    """Exit code, CSV bytes and manifest summary of one command."""
    code = main([*argv, "--out", str(out)])
    manifest = out.with_name(out.name + ".manifest.json")
    summary = json.loads(manifest.read_text())["summary"] if manifest.exists() else None
    return code, out.read_bytes() if out.exists() else None, summary


def no_output_left(directory: Path) -> bool:
    return not any(directory.iterdir())


@pytest.mark.parametrize("command", sorted(RANGE_ARGVS))
def test_block_edges_keep_the_bytes(tmp_path, monkeypatch, command):
    argv = RANGE_ARGVS[command]
    want = run(argv, tmp_path / "whole.csv")
    assert want[0] == 0 and want[2]["count"] == 58
    monkeypatch.setattr(cli, "_RANGE_BLOCK", 7)
    monkeypatch.setattr(cli, "_CSV_CHUNK", 3)
    assert run(argv, tmp_path / "blocks.csv") == want


@pytest.mark.parametrize("command", sorted(RANGE_ARGVS))
def test_one_write_csv_call_per_range_command(tmp_path, monkeypatch, command):
    # the layer tracer of perfbench wraps _write_csv(path, *args) and counts
    # the rows of the file at that path
    monkeypatch.setattr(cli, "_RANGE_BLOCK", 7)
    calls, real = [], cli._write_csv

    def spy(path, *args):
        calls.append(path)
        return real(path, *args)

    monkeypatch.setattr(cli, "_write_csv", spy)
    out = tmp_path / "out.csv"
    assert main([*RANGE_ARGVS[command], "--out", str(out)]) == 0
    assert calls == [out]


def fold_runner(values):
    """A range runner whose body yields ``values[n]`` as its column v and
    as the block's min_v and max_v, and the block's first N as first."""
    @cli._table("N,s,v", 1)
    def body(args, ns):
        v = np.asarray(values)[ns]
        return (v,), {"min_v": float(v.min()), "max_v": float(v.max()),
                      "first": int(ns[0])}
    return body


@pytest.mark.parametrize("nan_at", [None, 2, 9, 13])
def test_summary_fold_matches_the_whole_range(tmp_path, monkeypatch, nan_at):
    monkeypatch.setattr(cli, "_RANGE_BLOCK", 4)
    values = np.linspace(-1.0, 1.0, 14) ** 2
    if nan_at is not None:
        values[nan_at] = np.nan  # a nan in the first, a middle or the last block
    args = argparse.Namespace(n_range="1:13", s=0.5)
    outputs, summary, passed = fold_runner(values)(args, tmp_path / "v.csv")
    whole = values[1:]
    assert outputs == [tmp_path / "v.csv"] and passed
    assert summary["count"] == summary["first"] == 13
    for key, want in (("min_v", whole.min()), ("max_v", whole.max())):
        assert np.array_equal(summary[key], want, equal_nan=True)
    assert np.isnan(summary["min_v"]) == (nan_at is not None)


def test_energy_needs_n_or_range(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert main(["energy", "--s", "1", "--out", str(out)]) == 2
    assert "give exactly one of --N or --range" in capsys.readouterr().err
    assert no_output_left(tmp_path)


def fail_on_third_float_call(monkeypatch):
    calls, real = [], cli._float_columns

    def failing(columns, work):
        calls.append(len(columns))
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        return real(columns, work)

    monkeypatch.setattr(cli, "_float_columns", failing)
    return calls


def test_write_error_leaves_no_figures(tmp_path, monkeypatch, capsys):
    calls = fail_on_third_float_call(monkeypatch)
    d = tmp_path / "f"
    assert main(["figures", "--M", "14", "--out", str(d)]) == 74
    assert len(calls) == 3 and "No space left" in capsys.readouterr().err
    assert no_output_left(d)


def test_write_error_leaves_no_range_csv(tmp_path, monkeypatch):
    calls = fail_on_third_float_call(monkeypatch)
    code, data, summary = run(["tseq", "--s", "0.5", "--range", "2:20000"],
                              tmp_path / "t.csv")
    assert (code, data, summary, len(calls)) == (74, None, None, 3)
    assert no_output_left(tmp_path)


def test_domain_error_in_a_later_block_leaves_no_csv(tmp_path, monkeypatch, capsys):
    # the rows of N = 6000..6391 are written before the block of 6392 raises
    monkeypatch.setattr(cli, "_RANGE_BLOCK", 64)
    code, data, summary = run(["tseq", "--s", "80", "--range", "6000:6500"],
                              tmp_path / "t.csv")
    assert (code, data, summary) == (2, None, None)
    assert "n^81.0 overflows at n = 6392, s = 80.0" in capsys.readouterr().err
    assert no_output_left(tmp_path)


def test_success_leaves_no_part_file(tmp_path):
    assert run(RANGE_ARGVS["tseq"], tmp_path / "t.csv")[0] == 0
    assert main(["figures", "--M", "6", "--out", str(tmp_path / "f")]) == 0
    assert not list(tmp_path.rglob("*.part"))


PEAK = textwrap.dedent("""
    import sys
    from rieszgreedy.cli import main
    assert main(sys.argv[1:]) == 0
    status = open("/proc/self/status").read().split("VmHWM:")[1]
    print(int(status.split()[0]) / 1024)
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status for the peak RSS")
def test_range_peak_memory_does_not_grow_with_the_range(tmp_path):
    src = str(Path(rieszgreedy.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def peak_mb(n_range):
        done = subprocess.run(
            [sys.executable, "-c", PEAK, "tseq", "--s", "0.5", "--range", n_range,
             "--out", str(tmp_path / "t.csv")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return float(done.stdout)

    long, short = peak_mb("2:1048577"), peak_mb("2:1025")
    assert abs(long - short) <= 8.0, (long, short)
