"""Every command, whatever its flag values, ends with a documented exit
code (0, 2, 3, 64 or 74), with no exception and no RuntimeWarning
escaping ``cli.main``.  Valid sizes stay small (M <= 10, N <= 64,
grid-bits <= 14, ranges of at most 2^10 N), so each example runs in well
under its 2 s deadline."""

import contextlib
import io
import warnings
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from rieszgreedy import cli

EXIT_CODES = {0, cli.DOMAIN_ERROR, cli.VERIFY_ERROR, cli.USAGE_ERROR,
              cli.OUTPUT_ERROR}

HUGE = [-(1 << 60), -5, -1, 0, (1 << 53) - 1, 1 << 53, 1 << 60, 10 ** 30]
MALFORMED = ["x", "", "1.5", "--", "1e3"]


def ints(top: int):
    """Flag values for a size: mostly valid ones up to ``top``, then huge
    and negative ones, and text that is no integer."""
    small = st.integers(1, top).map(str)
    return st.one_of(small, small, small, st.sampled_from(HUGE).map(str),
                     st.sampled_from(MALFORMED))


TYPICAL_S = st.sampled_from(["-1.5", "-1", "-0.413", "0", "0.5", "1", "2",
                             "3", "3.5", "5", "-1.999", "-0.5"])
REAL = st.one_of(
    TYPICAL_S, TYPICAL_S, st.floats(-1.99, 6.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "2000",
                     "1023.5", "750", "126", "80", "1.0000000001", "1e-12",
                     "-2", "-3"] + MALFORMED),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))

STARTS = [-(1 << 60), -5, 0, 1, 2, 3, 1000, (1 << 52) - 5, (1 << 53) - 3,
          1 << 60]
LENGTHS = st.integers(-2, 1023)
RANGE = st.one_of(
    st.builds("{}:{}".format, st.integers(-10, 5000), st.integers(-10, 5000)),
    st.builds(lambda lo, length: f"{lo}:{lo + length}",
              st.integers(-10, 5000), LENGTHS),
    st.builds(lambda lo, length: f"{lo}:{lo + length}",
              st.sampled_from(STARTS), LENGTHS),
    st.sampled_from([":", "5", "1:2:3", "a:b", "3:", "-:-", "1.5:3", "2:x"]))

FLAGS = {
    "eta": {"--N": ints(64)},
    "energy": {"--s": REAL, "--N": ints(64), "--range": RANGE},
    "tseq": {"--s": REAL, "--range": RANGE},
    "fseq": {"--s": REAL, "--range": RANGE},
    "expansion-check": {"--s": REAL, "--range": RANGE},
    "cesaro": {"--s": REAL, "--range": RANGE},
    "scan": {"--M": ints(10), "--s": REAL,
             "--target": st.sampled_from(["energy", "log-kernel", "offset",
                                          "bogus"])},
    "figures": {"--M": ints(10)},
    "oracle-verify": {"--s": REAL, "--N": ints(64), "--tol": REAL,
                      "--grid-bits": ints(14)},
    "identities": {"--M": ints(10), "--s": REAL, "--tol": REAL},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = dict(FLAGS[command])
    if command == "energy" and draw(st.integers(0, 9)):
        del flags[draw(st.sampled_from(["--N", "--range"]))]  # takes one
    argv = [command]
    for flag, values in flags.items():
        if draw(st.integers(0, 9)):  # leave a flag out one time in ten
            argv += [flag, draw(values)]
    return argv, draw(st.integers(0, 9)) > 0


@settings(max_examples=800, deadline=timedelta(seconds=2),
          derandomize=True, database=None)
@given(case=argvs())
def test_every_argv_exits_with_a_documented_code(tmp_path_factory, case):
    argv, writable = case
    root = tmp_path_factory.getbasetemp() / "exit-codes"
    root.mkdir(exist_ok=True)
    blocker = root / "file"
    blocker.touch()
    # an --out below a regular file cannot be written
    name = "fig" if argv[0] == "figures" else "out.csv"
    out = root / name if writable else blocker / name
    with warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in EXIT_CODES, argv
