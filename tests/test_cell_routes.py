"""The row writer formats the float columns of a CSV shorter than one
chunk with ``%`` and those of a longer one with the numpy kernel of
:mod:`rieszgreedy.cells`; both routes write the same bytes.  ``main``
builds only the subparser of the command it runs, which parses, helps
and fails as the full parser does."""

import contextlib
import io

import pytest

from rieszgreedy import cells, cli
from rieszgreedy.cli import main

#: Commands whose CSVs are below one chunk at the default _CSV_CHUNK, and
#: a chunk that puts each above one.
ROUTED = [
    # every energy beyond 1e15
    (["energy", "--s", "3.805", "--range", "16776192:16777215"], 100),
    (["energy", "--s", "1e308", "--N", "5"], 1),  # inf
    (["expansion-check", "--s", "3.7", "--range", "2:1000"], 64),  # negative residuals
    (["figures", "--M", "11"], 100),
    (["scan", "--M", "11", "--target", "energy", "--s", "0.3"], 100),
    (["eta", "--N", "1000003"], 2),
    (["oracle-verify", "--s", "0.5", "--N", "40", "--grid-bits", "12"], 8),
    (["identities", "--M", "10", "--s", "0.5"], 100),
]


def written(argv, directory) -> dict:
    """Exit code 0, then every CSV the command wrote into ``directory``,
    by name."""
    figures = argv[0] == "figures"
    out = directory if figures else directory / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    return {path.name: path.read_bytes()
            for path in (sorted(out.glob("*.csv")) if figures else [out])}


@pytest.mark.parametrize("argv,chunk", ROUTED, ids=[
    "energy-near-2^24", "energy-inf", "expansion-check", "figures", "scan", "eta",
    "oracle-verify", "identities"])
def test_both_routes_write_the_same_bytes(tmp_path, monkeypatch, argv, chunk):
    calls, real = [], cells._float_columns

    def spy(columns, work):
        calls.append(len(columns))
        return real(columns, work)

    monkeypatch.setattr(cells, "_float_columns", spy)
    percent = written(argv, tmp_path / "percent")
    assert calls == []  # below one chunk: no kernel call
    monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
    kernel = written(argv, tmp_path / "kernel")
    assert (calls != []) == (argv[0] != "eta")  # eta writes no float array
    assert kernel == percent
    assert len(percent) == (5 if argv[0] == "figures" else 1)


def test_inf_and_negative_cells_are_covered(tmp_path):
    # the cells the route cases rely on: inf, and negative residuals
    (energies,) = written(ROUTED[1][0], tmp_path / "e").values()
    assert energies.endswith(b",inf\n")
    (residuals,) = written(ROUTED[2][0], tmp_path / "x").values()
    assert b",-" in residuals


def outcome(call) -> tuple:
    """The exit code (returned or raised) and the stdout and stderr of
    ``call()``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parsed(names, argv) -> tuple:
    """The outcome of parsing ``argv`` with the parser of ``names``; a
    parse that succeeds counts as exit code 0."""
    return outcome(lambda: cli._build_parser(names).parse_args(argv) and 0)


#: Per command: its help, an invalid flag value (the subparser's error)
#: and an unknown flag (the top parser's error).
PARSES = [["--help"], ["--jobs", "x"], ["--no-such-flag", "1"]]


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_one_command_parser_matches_the_full_one(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    for flags in PARSES:
        want = parsed(cli._COMMANDS, [command, *flags])
        assert want[0] == (0 if flags == ["--help"] else cli.USAGE_ERROR)
        assert want[1 if flags == ["--help"] else 2]
        assert parsed([command], [command, *flags]) == want


def spy_parsers(monkeypatch) -> list:
    """The command names of every parser :func:`cli.main` builds."""
    built, real = [], cli._build_parser

    def spy(names=cli._COMMANDS):
        built.append(list(names))
        return real(names)

    monkeypatch.setattr(cli, "_build_parser", spy)
    return built


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_main_builds_only_the_command_it_runs(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    want = parsed(cli._COMMANDS, [command, "--help"])
    built = spy_parsers(monkeypatch)
    assert outcome(lambda: main([command, "--help"])) == want
    assert built == [[command]]


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"]],
                         ids=["bare", "help", "bogus"])
def test_no_command_builds_the_full_parser(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    full = cli._build_parser()
    built = spy_parsers(monkeypatch)
    code, out, err = outcome(lambda: main(argv))
    assert built == [list(cli._COMMANDS)]
    if not argv:
        assert (code, out, err) == (cli.USAGE_ERROR, "", full.format_usage())
    else:  # the help and the invalid choice name every command
        assert (code, out, err) == parsed(cli._COMMANDS, argv)
        assert code == (0 if argv == ["--help"] else cli.USAGE_ERROR)
        assert all(name in out + err for name in cli._COMMANDS)
