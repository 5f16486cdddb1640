import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from rieszgreedy import cli
from rieszgreedy.arith import leja_offset
from rieszgreedy.binary import binary_weights
from rieszgreedy.cli import main


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


def _fmt(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


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
        cli._write_csv(out, ",".join(header), *columns)
        assert out.read_bytes() == ref.read_bytes()
        cli._write_csv(out, ",".join(header))
        assert out.read_bytes() == b"i,big,py,np,npscalar,npint,special\n"


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

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_scan_non_finite_s(self, tmp_path, s):
        out = str(tmp_path / "t.csv")
        assert main(["scan", "--M", "6", "--target", "energy", "--s", s,
                     "--out", out]) == 2

    def test_bad_range_syntax(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert main(["tseq", "--s", "0", "--range", "junk", "--out", out]) == 2

    def test_unwritable_output(self):
        assert main(["eta", "--N", "5",
                     "--out", "/proc/no-such-dir/x.csv"]) == 74
