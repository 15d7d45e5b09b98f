"""Property test: well-formed flags with hostile values never crash the CLI.

Every drawn command must exit 0, 1 or 2, print at most one `error:`
line on stderr and never a traceback.  Sizes stay small through
--max-elements <= 500, and verify through rank <= 3 and max weight
<= 4, so one example costs milliseconds.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from crystalcharge import cli
from crystalcharge.verify import SUITES


def csv(strategy):
    return strategy.map(lambda xs: ",".join(map(str, xs)))


def weights(rank):
    """Mostly partitions with small parts, else any entries in -2..6, else not a list of integers."""
    partitions = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=rank + 1).map(
        lambda xs: sorted(xs, reverse=True)
    )
    entries = st.lists(st.integers(min_value=-2, max_value=6), min_size=1, max_size=rank + 2)
    not_integers = st.sampled_from(["", "1,,1", "a", "1;1", "1.0"])
    return st.one_of(csv(partitions), csv(partitions), csv(entries), not_integers)


stages = st.one_of(
    st.integers(min_value=-3, max_value=6).map(str),
    st.sampled_from(["inf", "-inf", "", "1.5", "x", "∞"]),
)


@st.composite
def commands(draw):
    verb = draw(st.sampled_from(["kostka", "crystal", "atoms", "graph", "recharge", "hecke"]))
    rank = draw(st.sampled_from(range(9)))
    formats = ("text", "dot", "json") if verb == "graph" else ("text", "json")
    # --flag=value, so that argparse takes a value such as -2,1 as a value
    argv = [
        verb,
        f"--rank={rank}",
        f"--weight={draw(weights(rank))}",
        f"--max-elements={draw(st.integers(min_value=0, max_value=500))}",
        f"--format={draw(st.sampled_from(formats))}",
    ]
    if verb == "kostka":
        argv += [f"--mu={draw(weights(rank))}", f"--method={draw(st.sampled_from(cli.KOSTKA_METHODS))}"]
    if verb in ("graph", "recharge"):
        argv.append(f"--stage={draw(stages)}")
    return argv


@settings(max_examples=100, deadline=None, database=None)
@given(commands())
def test_hostile_flag_values_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert status in (0, 1, 2), (argv, status)
    assert "Traceback" not in err.getvalue()
    assert sum(line.startswith("error:") for line in lines) <= 1, (argv, lines)
    if status == 2:
        assert lines and lines[0].startswith("error:"), (argv, lines)


@st.composite
def verify_commands(draw):
    suite = draw(st.one_of(st.sampled_from(SUITES), st.sampled_from(["", "ALL", "oracle", "atoms,arrows", "-1"])))
    return [
        "verify",
        f"--suite={suite}",
        f"--rank={draw(st.integers(min_value=-1, max_value=3))}",
        f"--max-weight={draw(st.integers(min_value=-2, max_value=4))}",
        f"--max-elements={draw(st.integers(min_value=0, max_value=500))}",
    ]


@settings(max_examples=100, deadline=None, database=None)
@given(verify_commands())
def test_hostile_verify_arguments_exit_cleanly(argv):
    """A suite name argparse rejects exits 2 through SystemExit, its one error line last."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    lines = err.getvalue().splitlines()
    assert status in (0, 1, 2), (argv, status)
    assert "Traceback" not in err.getvalue()
    assert sum("error:" in line for line in lines) <= 1, (argv, lines)
    if status == 2:
        assert any("error:" in line for line in lines), (argv, lines)
