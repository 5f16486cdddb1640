"""Each command loads only the layers it runs, and the package serves its
public names lazily: every name in ``__all__`` is the object its defining
module holds, whichever way it is reached."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rieszgreedy
from rieszgreedy import asymptotics, cli, energy, limits

SRC = str(Path(rieszgreedy.__file__).resolve().parents[1])

SEQUENCE = {"rieszgreedy", "rieszgreedy.asymptotics", "rieszgreedy.energy",
            "rieszgreedy.special"}

#: argv, then every rieszgreedy module a fresh process has loaded after
#: running it (``python -m rieszgreedy.cli`` runs cli as __main__).
LOADED = [
    ([], {"rieszgreedy"}),
    (["energy", "--s", "0.5", "--range", "1:10"],
     {"rieszgreedy", "rieszgreedy.energy", "rieszgreedy.special"}),
    (["oracle-verify", "--s", "0.5", "--N", "8", "--grid-bits", "12"],
     {"rieszgreedy", "rieszgreedy.energy", "rieszgreedy.special"}),
    (["eta", "--N", "21"], {"rieszgreedy", "rieszgreedy.binary"}),
    # the scans need no energy layer: limits loads it in batch_eta_values only
    (["figures", "--M", "3"],
     {"rieszgreedy", "rieszgreedy.arith", "rieszgreedy.binary",
      "rieszgreedy.limits", "rieszgreedy.special"}),
    (["scan", "--M", "3", "--target", "energy", "--s", "0.5"],
     {"rieszgreedy", "rieszgreedy.arith", "rieszgreedy.binary",
      "rieszgreedy.limits", "rieszgreedy.special"}),
    # the sequences and the expansion need neither the scans nor the
    # exact arithmetic: those load only with the prediction of T
    (["tseq", "--s", "-0.4", "--range", "2:40"], SEQUENCE),
    (["fseq", "--s", "0.5", "--range", "1:40"], SEQUENCE),
    (["cesaro", "--s", "-0.5", "--range", "1:40"], SEQUENCE),
    (["expansion-check", "--s", "3.7", "--range", "2:40"], SEQUENCE),
]

#: argvs on either side of the row writer's routes: a CSV of one chunk
#: (2048 rows) loads the cell kernel, one of 1024 energies near 2^24 (all
#: beyond 1e15) formats them with % and loads no kernel module or table.
ROUTES = [
    (["tseq", "--s", "-0.4", "--range", "2:2049"], SEQUENCE | {"rieszgreedy.cells"}),
    (["energy", "--s", "3.805", "--range", "16776192:16777215"],
     {"rieszgreedy", "rieszgreedy.energy", "rieszgreedy.special"}),
]

#: Commands whose process must not load ``fractions`` (nor ``decimal``,
#: which it brings): nothing they run takes a Fraction.
WITHOUT_FRACTIONS = {"energy", "oracle-verify", "tseq", "fseq", "cesaro",
                     "expansion-check"}

# with no argv, a bare `import rieszgreedy`
PROBE = textwrap.dedent("""
    import json, runpy, sys
    if sys.argv[1:]:
        sys.argv[0] = "rieszgreedy"
        try:
            runpy.run_module("rieszgreedy.cli", run_name="__main__")
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    else:
        import rieszgreedy
    print(json.dumps([sorted(m for m in sys.modules
                             if m.partition(".")[0] == "rieszgreedy"),
                      "fractions" in sys.modules]))
""")


@pytest.mark.parametrize("argv, loaded", LOADED + ROUTES,
                         ids=[argv[0] if argv else "import" for argv, _ in LOADED]
                         + ["tseq-one-chunk", "energy-near-2^24"])
def test_modules_each_command_loads(tmp_path, argv, loaded):
    # a fresh process: this one already holds every layer
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    modules, fractions = json.loads(done.stdout)
    assert set(modules) == loaded
    if argv and argv[0] in WITHOUT_FRACTIONS:
        assert not fractions


def test_every_name_is_its_modules_object():
    for name, module in rieszgreedy._HOMES.items():
        home = importlib.import_module(f"rieszgreedy.{module}")
        assert getattr(rieszgreedy, name) is getattr(home, name), name
    assert rieszgreedy.__all__ == ["__version__", *rieszgreedy._HOMES]
    assert len(set(rieszgreedy.__all__)) == len(rieszgreedy.__all__)


def test_dir_and_star_import():
    assert set(rieszgreedy.__all__) <= set(dir(rieszgreedy))
    namespace = {}
    exec("from rieszgreedy import *", namespace)
    for name in rieszgreedy.__all__:
        assert namespace[name] is getattr(rieszgreedy, name), name


def test_unknown_names_raise():
    for module in (rieszgreedy, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_tracer_names_on_cli():
    assert cli.scan_extremum is limits.scan_extremum
    assert cli.greedy_energy is energy.greedy_energy
    assert cli.expansion_energy is asymptotics.expansion_energy
    assert cli.t_sequence is asymptotics.t_sequence


def test_tracer_names_on_the_layers():
    # the names perfbench/layertrace.py patches on asymptotics and energy,
    # which neither module imports at load time
    from rieszgreedy import arith, binary, special
    assert asymptotics.binary_weights is binary.binary_weights
    for name in ("energy_form", "leja_offset", "log_kernel_form"):
        assert getattr(asymptotics, name) is getattr(arith, name)
    assert asymptotics.sinc_power_series is special.sinc_power_series
    assert energy.decompose is binary.decompose
    for module in (asymptotics, energy):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_console_script_entry(tmp_path, monkeypatch):
    # pyproject's rieszgreedy = "rieszgreedy.cli:run" calls main() with no
    # argv; run() itself is held to main's results in test_process_entry
    out = tmp_path / "eta.csv"
    monkeypatch.setattr(sys, "argv", ["rieszgreedy", "eta", "--N", "21",
                                      "--out", str(out)])
    assert cli.main() == 0
    assert out.read_text().splitlines()[1:] == [
        "1,4,16,21,0.76190476190476186", "2,2,4,21,0.19047619047619047",
        "3,0,1,21,0.047619047619047616"]
