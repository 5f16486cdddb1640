"""One garbage-collection policy for every CLI process, set at its entry,
``cli.run``: no collection while the modules load, collection as usual
while the command runs, and a frozen heap at exit.  ``cli.main``, which
tests and in-process tools call, leaves the collector as it finds it.
The entry keeps every byte, exit code and manifest field of ``main``."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rieszgreedy
import test_cli
from rieszgreedy import cli

SRC = str(Path(rieszgreedy.__file__).resolve().parents[1])

#: ``python -m rieszgreedy.cli``, and the call of pyproject's console script.
ENTRIES = {
    "module": ["-m", "rieszgreedy.cli"],
    "script": ["-c", "import sys; from rieszgreedy.cli import run; sys.exit(run())"],
}

#: ``energy`` near 2^24, whose energies lie beyond 1e15, and the sha1
#: test_cli pins for it.
PINNED, PINNED_SHA1 = next((argv, sha1) for argv, sha1 in test_cli.TestPinnedBytes.RANGES
                           if argv[0] == "energy")

#: Runs the entry named by argv[1] on the rest of argv and, at exit,
#: prints the collector's state and how many collections started while
#: cli, run as __main__, was loading (from its first line to ``run``).
PROBE = textwrap.dedent("""
    import atexit, gc, json, sys
    loading = []

    def count(phase, info):
        main = vars(sys.modules["__main__"])
        if (phase == "start" and main.get("__file__", "").endswith("cli.py")
                and "run" not in main):
            loading.append(info["generation"])

    gc.callbacks.append(count)
    atexit.register(lambda: print(json.dumps(
        [gc.isenabled(), gc.get_freeze_count(), len(loading)])))
    entry = sys.argv.pop(1)
    sys.argv[0] = "rieszgreedy"
    if entry == "module":
        import runpy
        # alter_sys: cli's namespace is sys.modules["__main__"], as under -m
        runpy.run_module("rieszgreedy.cli", run_name="__main__", alter_sys=True)
    else:
        from rieszgreedy.cli import run
        sys.exit(run())
""")


def entry_process(args, cwd):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["eta", "--N", "21"], 0),
    (["tseq", "--s", "700", "--range", "2:5"], cli.DOMAIN_ERROR),
    (["energy", "--range", "1:5"], None),  # no --s: argparse's SystemExit
], ids=["ok", "domain", "usage"])
def test_main_keeps_the_callers_collector(tmp_path, argv, code, enabled):
    was = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        argv = argv + ["--out", str(tmp_path / "out.csv")]
        if code is None:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == cli.USAGE_ERROR
        else:
            assert cli.main(argv) == code
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_writes_the_pinned_bytes(tmp_path, entry):
    out = tmp_path / "energy.csv"
    done = entry_process(ENTRIES[entry] + PINNED + ["--out", str(out)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha1(out.read_bytes()).hexdigest() == PINNED_SHA1
    manifest = json.loads((tmp_path / "energy.csv.manifest.json").read_text())
    assert manifest["status"] == "ok"


@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_exit_codes(tmp_path, entry):
    done = entry_process(ENTRIES[entry] + ["tseq", "--s", "700", "--range", "2:5"],
                         tmp_path)
    assert done.returncode == cli.DOMAIN_ERROR
    assert "overflows" in done.stderr
    assert entry_process(ENTRIES[entry], tmp_path).returncode == cli.USAGE_ERROR


@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_freezes_the_heap_at_exit(tmp_path, entry):
    done = entry_process(["-c", PROBE, entry, "eta", "--N", "21"], tmp_path)
    assert done.returncode == 0, done.stderr
    enabled, frozen, loading = json.loads(done.stdout.splitlines()[-1])
    assert enabled and frozen > 0
    assert loading == 0
