import csv
import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import oracles
from rieszgreedy import cli, energy, limits
from rieszgreedy.arith import leja_offset
from rieszgreedy.asymptotics import (cesaro_mean, expansion_energy, f_sequence,
                                     t_sequence)
from rieszgreedy.binary import binary_weights
from rieszgreedy.cli import main
from rieszgreedy.energy import extremal_potential, greedy_energy
from rieszgreedy.limits import scan_extremum
from rieszgreedy.special import arclength_energy


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestEta:
    def test_rows(self, tmp_path):
        out = tmp_path / "eta.csv"
        assert main(["eta", "--N", "21", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["k", "exponent", "numerator", "denominator", "weight"]
        assert [r[1] for r in rows] == ["4", "2", "0"]
        assert [r[2] for r in rows] == ["16", "4", "1"]
        manifest = json.loads((tmp_path / "eta.csv.manifest.json").read_text())
        assert manifest["command"] == "eta"
        assert manifest["summary"]["bit_count"] == 3
        assert manifest["status"] == "ok"


class TestTseq:
    def test_log_case_rows_equal_offset(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["tseq", "--s", "0", "--range", "2:256",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["N", "s", "energy", "T"]
        for row in rows:
            n = int(row[0])
            assert float(row[3]) == pytest.approx(
                leja_offset(binary_weights(n)), abs=1e-12)


class TestScanAndFigures:
    def test_scan_summary(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--M", "8", "--target", "energy", "--s", "0.5",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "value"]
        assert len(rows) == 128
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["summary"]["orientation"] == "min"
        assert "error_bound" in manifest["summary"]

    def test_figures_deterministic_across_jobs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["figures", "--M", "7", "--out", str(d1)]) == 0
        assert main(["figures", "--M", "7", "--out", str(d2),
                     "--jobs", "4"]) == 0
        names = sorted(p.name for p in d1.iterdir())
        assert names == ["fig1_offset.csv", "fig2_energy_minus_half.csv",
                         "fig3_energy_one_third.csv",
                         "fig4_energy_seven_halves.csv",
                         "fig5_log_kernel.csv", "manifest.json"]
        for name in names:
            if name == "manifest.json":
                continue  # carries wall time
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_figure_values(self, tmp_path):
        d = tmp_path / "f"
        assert main(["figures", "--M", "6", "--out", str(d)]) == 0
        _, rows = read_csv(d / "fig1_offset.csv")
        values = [float(r[1]) for r in rows]
        assert 0.0 <= min(values) and max(values) < math.log(4.0 / 3.0)
        panels = json.loads((d / "manifest.json").read_text())["summary"]["panels"]
        for name, panel in panels.items():
            _, rows = read_csv(d / name)
            # the extremal row; ties go to the smallest x, i.e. the last row
            arg = max(i for i, r in enumerate(rows)
                      if float(r[1]) == panel["extremum"])
            assert float(rows[arg][0]) == panel["arg_x_float"]
            assert float(Fraction(panel["arg_x"])) == panel["arg_x_float"]
            assert (("error_bound" in panel)
                    == (panel["target"] == "energy_form"))


def _panel_bytes(result) -> bytes:
    """A scan's CSV by the per-cell rule, from its kept grid arrays."""
    lines = ["x,value"] + [f"{x:.17g},{v:.17g}"
                           for x, v in zip(result.xs.tolist(),
                                           result.values.tolist())]
    return ("\n".join(lines) + "\n").encode()


class TestStreamedScans:
    """figures and scan stream the grid in blocks; with blocks of 4 odd N
    and CSV chunks of 3 rows, blocks, chunks and the extremum search all
    cross boundaries.  The references are whole-grid scans taken before
    the block size is patched."""

    @pytest.mark.parametrize("m", [1, 2, 6, 12])
    def test_figures_match_scan_extremum(self, tmp_path, monkeypatch, m):
        want = {name: scan_extremum(m, target, s)
                for name, target, s in cli._FIGURES}
        monkeypatch.setattr(limits, "_CHUNK", 4)
        monkeypatch.setattr(cli, "_CSV_CHUNK", 3)
        d = tmp_path / "f"
        assert main(["figures", "--M", str(m), "--out", str(d)]) == 0
        panels = json.loads((d / "manifest.json").read_text())["summary"]["panels"]
        assert set(panels) == set(want)
        for name, result in want.items():
            assert (d / name).read_bytes() == _panel_bytes(result)
            assert panels[name] == cli._scan_summary(result)

    @pytest.mark.parametrize("m", [1, 2, 6, 12])
    @pytest.mark.parametrize("target,s", [("energy", "0.7"), ("energy", "-0.5"),
                                          ("log-kernel", None), ("offset", None)])
    def test_scan_matches_scan_extremum(self, tmp_path, monkeypatch, m, target, s):
        result = scan_extremum(m, cli._SCAN_TARGETS[target],
                               None if s is None else float(s))
        monkeypatch.setattr(limits, "_CHUNK", 4)
        monkeypatch.setattr(cli, "_CSV_CHUNK", 3)
        out = tmp_path / "scan.csv"
        argv = ["scan", "--M", str(m), "--target", target, "--out", str(out)]
        assert main(argv + ([] if s is None else ["--s", s])) == 0
        assert out.read_bytes() == _panel_bytes(result)
        manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
        assert manifest["summary"] == {"M": m, **cli._scan_summary(result)}

    def test_figures_match_scan_per_panel(self, tmp_path):
        d = tmp_path / "f"
        assert main(["figures", "--M", "10", "--out", str(d)]) == 0
        flags = {target: flag for flag, target in cli._SCAN_TARGETS.items()}
        for name, target, s in cli._FIGURES:
            out = tmp_path / f"scan_{name}"
            argv = ["scan", "--M", "10", "--target", flags[target], "--out", str(out)]
            assert main(argv + ([] if s is None else ["--s", repr(s)])) == 0
            assert (d / name).read_bytes() == out.read_bytes(), name

    @pytest.mark.parametrize("m", ["0", "25"])
    def test_order_checked_before_any_file(self, tmp_path, m):
        d = tmp_path / "f"
        assert main(["figures", "--M", m, "--out", str(d)]) == 2
        assert not d.exists() or not list(d.glob("*.csv"))
        out = tmp_path / "scan.csv"
        assert main(["scan", "--M", m, "--target", "offset",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_unopenable_panel_closes_the_others(self, tmp_path):
        d = tmp_path / "f"
        (d / "fig3_energy_one_third.csv").mkdir(parents=True)
        assert main(["figures", "--M", "6", "--out", str(d)]) == 74
        assert not (d / "manifest.json").exists()
        assert [p.name for p in d.iterdir()] == ["fig3_energy_one_third.csv"]


class TestPanelsMatchTemplateWriter:
    """figures and scan at M = 12 write the bytes of the % template writer
    of tests/oracles.py over the blocks of the same GridScan, at the
    package's block and chunk sizes and at sizes that split the grid
    into uneven blocks and chunks."""

    @staticmethod
    def template_bytes(m, panels) -> list:
        files = [["x,value\n"] for _ in panels]

        def sink(xs, values):
            for rows, column in zip(files, values):
                rows.append(oracles.csv_rows([xs, column], xs.size))

        limits.GridScan(m, panels).run(sink)
        return ["".join(rows).encode() for rows in files]

    @pytest.mark.parametrize("block,chunk", [(None, None), (1000, 300)])
    def test_figures(self, tmp_path, monkeypatch, block, chunk):
        if block:
            monkeypatch.setattr(limits, "_CHUNK", block)
            monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        want = self.template_bytes(12, [(t, s) for _, t, s in cli._FIGURES])
        d = tmp_path / "f"
        assert main(["figures", "--M", "12", "--out", str(d)]) == 0
        for (name, _, _), expected in zip(cli._FIGURES, want):
            assert (d / name).read_bytes() == expected, name

    @pytest.mark.parametrize("block,chunk", [(None, None), (1000, 300)])
    @pytest.mark.parametrize("target,s", [("energy", "0.7"), ("energy", "-0.5"),
                                          ("log-kernel", None), ("offset", None)])
    def test_scan(self, tmp_path, monkeypatch, block, chunk, target, s):
        if block:
            monkeypatch.setattr(limits, "_CHUNK", block)
            monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        (want,) = self.template_bytes(12, [(cli._SCAN_TARGETS[target],
                                            None if s is None else float(s))])
        out = tmp_path / "scan.csv"
        argv = ["scan", "--M", "12", "--target", target, "--out", str(out)]
        assert main(argv + ([] if s is None else ["--s", s])) == 0
        assert out.read_bytes() == want


def _fmt(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


class TestPinnedBytes:
    """The sha1 of what figures and scan write at M = 12: any byte the
    cell or the grid kernel moves fails here."""

    FIGURES = {
        "fig1_offset.csv": "2ebcec4a29fc09039e21201a5ba2091817ee350e",
        "fig2_energy_minus_half.csv": "8a02caf8c6268139b955133dbfc2908ae45eb59a",
        "fig3_energy_one_third.csv": "b85777e2f819a6d1252a221ddc1f099c359cfca8",
        "fig4_energy_seven_halves.csv": "de2264aa31bf8264c42afc412ec6ce74ca8c8917",
        "fig5_log_kernel.csv": "4e07a9881ce308303189dc68b98baf632b7d45ad",
    }
    SCANS = [("energy", "0.3", "390d260f537430d5ce6edd30cc2f8c0dd3557344"),
             ("log-kernel", None, FIGURES["fig5_log_kernel.csv"]),
             ("offset", None, FIGURES["fig1_offset.csv"])]

    def test_figures(self, tmp_path):
        assert main(["figures", "--M", "12", "--out", str(tmp_path)]) == 0
        assert {name: hashlib.sha1((tmp_path / name).read_bytes()).hexdigest()
                for name in self.FIGURES} == self.FIGURES

    @pytest.mark.parametrize("target,s,sha1", SCANS)
    def test_scan(self, tmp_path, target, s, sha1):
        out = tmp_path / "scan.csv"
        argv = ["scan", "--M", "12", "--target", target, "--out", str(out)]
        assert main(argv + ([] if s is None else ["--s", s])) == 0
        assert hashlib.sha1(out.read_bytes()).hexdigest() == sha1

    #: Range commands whose cells lie mostly outside [1e-11, 1e15) or are
    #: whole: energies beyond 1e15, and N near 2^24 (70% of the float
    #: cells of the first).
    RANGES = [
        (["expansion-check", "--s", "4.9", "--range", "2:4096"],
         "468a9c2ab50ffcbd3c334ca6d90f1270ca2884c4"),
        (["expansion-check", "--s", "3.712", "--range", "2:16384"],
         "d96947a32578233797f0f97c53634b1b11d30c8a"),
        (["energy", "--s", "3.29", "--range", "16776200:16777215"],
         "e2cc531d994effca40ef254ea1334283c1f7afe0"),
    ]

    @pytest.mark.parametrize("argv,sha1", RANGES, ids=lambda a: " ".join(a[:3])
                             if isinstance(a, list) else None)
    def test_range(self, tmp_path, argv, sha1):
        out = tmp_path / "range.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha1(out.read_bytes()).hexdigest() == sha1


class TestCsvWriter:
    @pytest.mark.parametrize("chunk", [4, cli._CSV_CHUNK])
    def test_matches_csv_module(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        count = 11
        columns = [
            list(range(count)),
            [(1 << 70) + 3 ** k for k in range(count)],
            [1.0 / (k + 1) for k in range(count)],
            np.linspace(-1e300, 1e-300, count),
            [np.float64(k) / 7.0 for k in range(count)],
            np.arange(count, dtype=np.int64) * (1 << 40),
            [math.nan, math.inf, -math.inf, 0.0, -0.0] + [2] * (count - 5),
        ]
        header = ["i", "big", "py", "np", "npscalar", "npint", "special"]
        ref = tmp_path / "ref.csv"
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in zip(*columns):
                writer.writerow([_fmt(v) for v in row])
        out = tmp_path / "out.csv"
        cli._write_csv(out, ",".join(header), [columns])
        assert out.read_bytes() == ref.read_bytes()
        cli._write_csv(out, ",".join(header), [])
        assert out.read_bytes() == b"i,big,py,np,npscalar,npint,special\n"

    @pytest.mark.parametrize("chunk", [4, cli._CSV_CHUNK])
    @pytest.mark.parametrize("fallback", [math.nan, math.inf, -math.inf, 3.0, -120.0,
                                          5e-324, 0.0, -0.0])
    def test_fallback_cells_in_one_float_column(self, tmp_path, monkeypatch, chunk,
                                                fallback):
        # the float arrays of a chunk are formatted together; the % cells of
        # chunk j sit in float column j % 3 alone, over three chunks
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        count = 2 * chunk + 3
        floats = [np.linspace(0.1, 0.9, count) + k / 3 for k in range(3)]
        for row in range(1, count, 3):
            floats[row // chunk % 3][row] = fallback
        columns = [np.arange(count), floats[0], 0.5, floats[1], floats[2]]
        ref = tmp_path / "ref.csv"
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow("iakbc")
            for row in zip(range(count), *(f.tolist() for f in floats)):
                writer.writerow([_fmt(v) for v in (row[0], row[1], 0.5, *row[2:])])
        out = tmp_path / "out.csv"
        cli._write_csv(out, "i,a,k,b,c", [columns])
        assert out.read_bytes() == ref.read_bytes()


def _cesaro_row(n, s):
    mean = cesaro_mean(n, s)
    dev = mean - arclength_energy(s) / 2.0
    if s == -1.0:
        scale = n / math.log(n) if n > 1 else 1.0
    elif s < -1.0:
        scale = float(n)
    else:
        scale = float(n) ** (-s)
    return mean, dev, dev * scale


def _expansion_row(n, s):
    exact = greedy_energy(n, s)
    predicted = expansion_energy(n, s)
    return exact, predicted, exact - predicted


# each range command against rows built from the scalar per-n functions
SCALAR_ROWS = {
    "energy": lambda n, s: (greedy_energy(n, s),),
    "tseq": lambda n, s: (greedy_energy(n, s), t_sequence(n, s)),
    "fseq": lambda n, s: (extremal_potential(n, s),
                          f_sequence(n, s)),
    "cesaro": _cesaro_row,
    "expansion-check": _expansion_row,
}


class TestRangeCommandsMatchScalar:
    @pytest.mark.parametrize("command,s", [
        *[(c, s) for c in ("energy", "tseq", "fseq")
          for s in (-1.5, -1.0, -0.413, 0.0, 1.0 / 3.0, 1.0, 3.5)],
        *[("cesaro", s) for s in (-1.5, -1.0, -0.413)],
        *[("expansion-check", s) for s in (-1.0, -0.413, 1.0 / 3.0, 1.0, 3.5, 5.0)]])
    def test_bytes(self, tmp_path, command, s):
        out = tmp_path / "r.csv"
        assert main([command, "--s", repr(s), "--range", "2:300",
                     "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        want = [",".join([str(n), f"{s:.17g}"]
                         + [f"{v:.17g}" for v in SCALAR_ROWS[command](n, s)])
                for n in range(2, 301)]
        assert lines == want


class TestVerifiers:
    def test_oracle_verify_passes(self, tmp_path):
        out = tmp_path / "ov.csv"
        assert main(["oracle-verify", "--s", "0.5", "--N", "12",
                     "--grid-bits", "14", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "ov.csv.manifest.json").read_text())
        assert manifest["summary"]["max_rel_gap"] <= 1e-7

    def test_oracle_verify_failure_still_writes_manifest(self, tmp_path):
        out = tmp_path / "ov.csv"
        assert main(["oracle-verify", "--s", "0.5", "--N", "12",
                     "--grid-bits", "14", "--tol", "0",
                     "--out", str(out)]) == 3
        manifest = json.loads((tmp_path / "ov.csv.manifest.json").read_text())
        assert manifest["status"] == "verification-failed"
        assert out.exists()

    def test_identities_pass(self, tmp_path):
        out = tmp_path / "id.csv"
        assert main(["identities", "--M", "4", "--s", "0.5",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 1 + 2 + 4 + 8
        assert main(["identities", "--M", "4", "--s", "0.5", "--tol", "0",
                     "--out", str(out)]) == 3

    def test_a_nan_row_fails(self, tmp_path, monkeypatch):
        # one nan row among passing ones fails the check, not the reduction
        out = tmp_path / "v.csv"
        identities, energies = limits.child_identities, energy.greedy_energies

        def nan_identities(m, s):
            sides = identities(m, s)
            sides[1][-1] = np.nan
            return sides

        monkeypatch.setattr(limits, "child_identities", nan_identities)
        monkeypatch.setattr(energy, "greedy_energies", lambda ns, params: np.where(
            ns == 5, np.nan, energies(ns, params)))
        assert main(["identities", "--M", "3", "--s", "0.5",
                     "--out", str(out)]) == 3
        assert main(["oracle-verify", "--s", "0.5", "--N", "8",
                     "--grid-bits", "12", "--out", str(out)]) == 3


class TestOtherCommands:
    def test_energy_single(self, tmp_path):
        out = tmp_path / "e.csv"
        assert main(["energy", "--s", "2", "--N", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0][2]) == pytest.approx(2.5)

    def test_fseq(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["fseq", "--s", "2", "--range", "1:32",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(0.0 < float(r[3]) < 0.26 for r in rows)

    def test_expansion_check(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["expansion-check", "--s", "2", "--range", "2:64",
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert manifest["summary"]["max_rel_residual"] <= 1e-11

    def test_cesaro(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["cesaro", "--s", "-0.5", "--range", "1:64",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["N", "s", "mean", "deviation", "scaled_deviation"]


class TestHelpColumns:
    """Each command's CSV header is the one string behind its file and the
    "CSV columns" of its --help."""

    ARGVS = {
        "eta": ["--N", "5"],
        "energy": ["--s", "0.5", "--N", "5"],
        "tseq": ["--s", "0.5", "--range", "2:4"],
        "fseq": ["--s", "0.5", "--range", "1:4"],
        "scan": ["--M", "3", "--target", "offset"],
        "figures": ["--M", "3"],
        "expansion-check": ["--s", "2", "--range", "2:4"],
        "cesaro": ["--s", "-0.5", "--range", "1:4"],
        "oracle-verify": ["--s", "0.5", "--N", "4", "--grid-bits", "10"],
        "identities": ["--M", "2", "--s", "0.5"],
    }

    def test_every_command(self):
        assert sorted(self.ARGVS) == sorted(cli._COMMANDS)

    @pytest.mark.parametrize("command", sorted(ARGVS))
    def test_help_lists_the_header(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        columns = re.search(r"CSV columns: (.*?) options:", text).group(1)
        out = tmp_path / "out"
        assert main([command, *self.ARGVS[command], "--out", str(out)]) == 0
        per_file = command == "figures"
        paths = sorted(out.glob("*.csv")) if per_file else [out]
        assert len(paths) == (5 if per_file else 1)
        for path in paths:
            header = path.read_text(encoding="utf-8").split("\n", 1)[0]
            suffix = " (per file)" if per_file else ""
            assert columns == header.replace(",", ", ") + suffix


class TestExitCodes:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 64

    def test_no_command(self):
        assert main([]) == 64

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["tseq", "--range", "2:4"])
        assert err.value.code == 64

    def test_domain_error(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert main(["tseq", "--s", "-3", "--range", "2:4", "--out", out]) == 2
        assert main(["scan", "--M", "0", "--target", "offset",
                     "--out", out]) == 2
        assert main(["scan", "--M", "4", "--target", "energy", "--s", "1",
                     "--out", out]) == 2
        assert main(["energy", "--s", "1", "--out", out]) == 2

    @pytest.mark.parametrize("target,name", [("offset", "leja_offset"),
                                             ("log-kernel", "log_kernel_form")])
    def test_s_free_scan_rejects_an_s(self, tmp_path, capsys, target, name):
        # no manifest may name an s the scan does not use
        out = tmp_path / "t.csv"
        assert main(["scan", "--M", "3", "--target", target, "--s", "0.5",
                     "--out", str(out)]) == 2
        assert f"{name} takes no s" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "t.csv.manifest.json").exists()

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_scan_non_finite_s(self, tmp_path, s):
        out = str(tmp_path / "t.csv")
        assert main(["scan", "--M", "6", "--target", "energy", "--s", s,
                     "--out", out]) == 2

    @pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ["energy", "--range", "1:4"], ["tseq", "--range", "2:4"],
        ["fseq", "--range", "1:4"], ["cesaro", "--range", "1:4"],
        ["expansion-check", "--range", "2:4"],
        ["oracle-verify", "--N", "4", "--grid-bits", "10"],
        ["scan", "--M", "6", "--target", "energy"], ["identities", "--M", "4"]])
    def test_non_finite_s(self, tmp_path, capsys, argv, s):
        out = str(tmp_path / "t.csv")
        assert main([*argv, f"--s={s}", "--out", out]) == 2
        assert f"s = {float(s)} is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("s, first, last", [
        ("-0.5", 67108867, 67108869), ("0.5", (1 << 53) - 1, (1 << 53) - 1)])
    def test_fseq_at_large_n(self, tmp_path, s, first, last):
        # as a difference of two energies the first F were off by up to
        # 0.6, and the last n needed E(2^53), beyond the array kernel
        out = tmp_path / "f.csv"
        assert main(["fseq", "--s", s, "--range", f"{first}:{last}",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [int(r[0]) for r in rows] == list(range(first, last + 1))
        for n, _, _, f in rows:
            assert abs(float(f) - oracles.f_reference(int(n), float(s))) <= 1e-6

    def test_expansion_next_to_an_odd_s(self, tmp_path, capsys):
        out = str(tmp_path / "t.csv")
        assert main(["expansion-check", "--s", "3.0000000000001",
                     "--range", "100:105", "--out", out]) == 2
        assert ("s = 3.0000000000001 is within 1e-09 of the branch point 3.0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["energy", "--s", "0.5", "--range", "0:0"],
        ["energy", "--s", "0.5", "--N", "0"],
        ["tseq", "--s", "0.5", "--range", "0:1"],
        ["fseq", "--s", "0.5", "--range", "0:0"],
        ["expansion-check", "--s", "0.5", "--range", "0:1"],
        ["cesaro", "--s", "-0.5", "--range=-3:0"],
        ["tseq", "--s", "0.5", "--range", "9:3"]])
    def test_empty_range(self, tmp_path, capsys, argv):
        out = tmp_path / "t.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert "empty range" in capsys.readouterr().err
        assert not out.exists()

    def test_range_clamped_to_smallest_n(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["tseq", "--s", "0.5", "--range=-5:3",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["2", "3"]

    def test_values_starting_with_minus(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["energy", "--s", "-inf", "--N", "5",
                     "--out", str(out)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert main(["energy", "--s", "-0.5", "--range", "-3:0",
                     "--out", str(out)]) == 2
        assert "empty range" in capsys.readouterr().err
        assert main(["tseq", "--s", "-0.5", "--range", "-3:10",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == [str(n) for n in range(2, 11)]
        assert main(["energy", "--s", "-1e-3", "--N", "5",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0][:2] == ["5", "-0.001"]

    def test_energy_far_beyond_the_expansion_switch(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["energy", "--s", "0.37", "--N", str(1 << 40),
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert math.isfinite(float(rows[0][2]))

    def test_range_beyond_float_integers(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert main(["energy", "--s", "0.5", "--N", str(1 << 53),
                     "--out", out]) == 2

    def test_cesaro_names_its_own_bound(self, tmp_path, capsys):
        # 2^53 - 1 lies in [1, 2^53), but its mean needs E(2^53)
        out = tmp_path / "t.csv"
        assert main(["cesaro", "--s", "-0.5", "--range",
                     "9007199254740991:9007199254740991", "--out", str(out)]) == 2
        assert "n must lie in [1, 2^53 - 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_range_syntax(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert main(["tseq", "--s", "0", "--range", "junk", "--out", out]) == 2

    def test_range_length_capped(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "t.csv"
        # 2^52 N: rejected before any array over N exists
        assert main(["energy", "--s", "0.5", "--range", "2:4503599627370495",
                     "--out", str(out)]) == 2
        assert "split it" in capsys.readouterr().err
        assert not out.exists()
        assert main(["tseq", "--s", "0.5",
                     "--range", f"2:{cli.MAX_RANGE + 2}", "--out", str(out)]) == 2
        monkeypatch.setattr(cli, "MAX_RANGE", 8)
        assert main(["tseq", "--s", "0.5", "--range", "0:9",
                     "--out", str(out)]) == 0  # clamped to 2..9
        assert main(["energy", "--s", "0.5", "--range", "1:9",
                     "--out", str(out)]) == 2

    @pytest.mark.parametrize("argv", [
        ["oracle-verify", "--s", "0.5", "--N", "4", "--grid-bits", "23"],
        ["oracle-verify", "--s", "0.5", "--N", "4", "--grid-bits", "60"],
        ["identities", "--s", "0.5", "--M", "17"],
        ["identities", "--s", "0.5", "--M", "1000000"]])
    def test_size_flags_capped(self, tmp_path, capsys, argv):
        out = tmp_path / "t.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert "exceeds" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_failure_is_a_domain_error(self, tmp_path, capsys):
        # at s = 1000 every grid potential overflows by the fifth point
        out = tmp_path / "t.csv"
        with np.errstate(all="ignore"):
            assert main(["oracle-verify", "--s", "1000", "--N", "40",
                         "--grid-bits", "12", "--out", str(out)]) == 2
        assert "oracle failed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["tseq", "--s", "80", "--range", "32000:32010"],
        ["fseq", "--s", "80", "--range", "32000:32010"],
        ["scan", "--s", "1023", "--M", "4", "--target", "energy"],
        ["scan", "--s", "2000", "--M", "4", "--target", "energy"]])
    def test_float_range_overflow_is_a_domain_error(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 2

    @pytest.mark.parametrize("argv", [
        ["identities", "--M", "3", "--s", "0.5", "--tol", "nan"],
        ["identities", "--M", "3", "--s", "0.5", "--tol", "inf"],
        ["oracle-verify", "--N", "5", "--s", "0.5", "--tol", "-1"]])
    def test_bad_tol_is_a_domain_error(self, tmp_path, capsys, argv):
        # no result could pass such a tolerance: not a verification failure
        out = tmp_path / "t.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert "--tol must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("s, first", [("80", 32000), ("1e308", 2)])
    def test_power_overflow_names_n_and_s(self, tmp_path, capsys, s, first):
        # n^{1+s} passes the float range at every n of the range
        out = tmp_path / "t.csv"
        assert main(["tseq", "--s", s, "--range", f"{first}:{first + 10}",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"n^{1.0 + float(s)}" in err
        assert f"n = {first}, s = {float(s)}" in err
        assert not out.exists()

    def test_expansion_overflow_names_n_and_s(self, tmp_path, capsys):
        # E(2^20) at s = 60 is beyond the float range: not a row of inf
        # predictions
        out = tmp_path / "t.csv"
        assert main(["expansion-check", "--s", "60", "--range", "1048576:1048580",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "n = 1048576, s = 60.0" in err
        assert not out.exists()
        assert not out.with_name(out.name + ".manifest.json").exists()
        # E(n) is about 3e242 here, where n^126 * n overflowed
        assert main(["expansion-check", "--s", "126", "--range", "270:279",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            exact, predicted = float(row[2]), float(row[3])
            assert abs(predicted - exact) <= 1e-13 * exact, row[0]

    @pytest.mark.parametrize("flags", [
        ["--M", "0", "--s", "0.5"], ["--M=-3", "--s", "0.5"]])
    def test_identities_need_an_order(self, tmp_path, capsys, flags):
        out = tmp_path / "t.csv"
        assert main(["identities", *flags, "--out", str(out)]) == 2
        assert "order M" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_name(out.name + ".manifest.json").exists()

    @pytest.mark.parametrize("s", ["nan", "inf", "-inf", "0", "1e308"])
    def test_identities_take_the_scan_s(self, tmp_path, capsys, s):
        out = tmp_path / "t.csv"
        assert main(["identities", "--M", "4", f"--s={s}",
                     "--out", str(out)]) == 2
        assert f"s = {float(s)}" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_name(out.name + ".manifest.json").exists()

    @pytest.mark.parametrize("s, first, last", [
        ("80", 1 << 40, (1 << 40) + 3), ("1e308", 1, 5)])
    def test_undetermined_potential_is_a_domain_error(self, tmp_path, capsys,
                                                      s, first, last):
        # E(first + 1) at s = 80 and E(5) at s = 1e308 are beyond the
        # float range, so the potential before them is not known
        out = tmp_path / "t.csv"
        assert main(["fseq", "--s", s, "--range", f"{first}:{last}",
                     "--out", str(out)]) == 2
        n = first if s == "80" else 4
        assert f"potential at n = {n}, s = {float(s)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        (["--s", "1023.5", "--N", "7"], 0), (["--s", "750", "--N", "12"], 0),
        (["--s", "1e308", "--N", "7"], 2)])
    def test_oracle_overflow_is_silent(self, tmp_path, capsys, argv, code):
        # chord^-s beyond the float range is an inf the oracle skips, in
        # the grid potential and in the Newton steps alike
        out = tmp_path / "t.csv"
        assert main(["oracle-verify", *argv, "--grid-bits", "12",
                     "--out", str(out)]) == code
        assert "overflow" not in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["65535", "98304"])
    def test_energy_beyond_the_float_range_is_inf(self, tmp_path, n):
        # L(2^16) at s = 80 is beyond the float range, L(2^15) = 1.6e302
        # is not; E(98304) weights L(2^16) by zero, E(65535) takes it
        out = tmp_path / "t.csv"
        assert main(["energy", "--s", "80", "--N", n, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows == [[n, "80", "inf"]]

    def test_unwritable_output(self):
        assert main(["eta", "--N", "5",
                     "--out", "/proc/no-such-dir/x.csv"]) == 74
