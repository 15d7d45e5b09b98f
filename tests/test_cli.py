"""Tests for the command-line interface: outputs, exit codes, determinism."""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from crystalcharge import cli
from crystalcharge import crystal as crystal_module
from crystalcharge.crystal import Crystal
from crystalcharge.verify import VerifyReport


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# -- kostka ---------------------------------------------------------------------


def test_kostka_text(capsys):
    status, out, _ = run_cli(
        capsys, "kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "1,1,1"
    )
    assert status == 0
    assert out == "q^2 + q\n"


def test_kostka_trivial(capsys):
    status, out, _ = run_cli(
        capsys, "kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "2,1,0"
    )
    assert status == 0
    assert out == "1\n"


def test_kostka_json(capsys):
    status, out, _ = run_cli(
        capsys,
        "kostka",
        "--rank",
        "2",
        "--weight",
        "2,1,0",
        "--mu",
        "1,1,1",
        "--format",
        "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["kostka"] == {"4": 1, "2": 1}
    assert payload["text"] == "q^2 + q"


def test_kostka_methods_agree_via_cli(capsys):
    outputs = set()
    for method in ("new", "ls", "llt"):
        status, out, _ = run_cli(
            capsys,
            "kostka",
            "--rank",
            "2",
            "--weight",
            "3,1,0",
            "--mu",
            "2,1,1",
            "--method",
            method,
        )
        assert status == 0
        outputs.add(out)
    assert len(outputs) == 1


# -- atoms ----------------------------------------------------------------------


def test_atoms_json(capsys):
    status, out, _ = run_cli(
        capsys, "atoms", "--rank", "2", "--weight", "2,1,0", "--format", "json"
    )
    assert status == 0
    payload = json.loads(out)
    records = payload["atoms"]
    assert [rec["size"] for rec in records] == [7, 1]
    assert [rec["z_doubled"] for rec in records] == [4, 2]


def test_atoms_text(capsys):
    status, out, _ = run_cli(capsys, "atoms", "--rank", "2", "--weight", "2,1,0")
    assert status == 0
    assert out.splitlines() == [
        "highest_weight=2,1,0 size=7 z=2",
        "highest_weight=1,1,1 size=1 z=1",
    ]


# -- graph ----------------------------------------------------------------------


def test_graph_dot_stage0(capsys):
    status, out, _ = run_cli(
        capsys, "graph", "--rank", "1", "--weight", "2,0", "--stage", "0",
        "--format", "dot",
    )
    assert status == 0
    lines = out.splitlines()
    node_lines = [line for line in lines if line.endswith('";')]
    edge_lines = [line for line in lines if "->" in line]
    assert len(node_lines) == 3
    assert len(edge_lines) == 3
    assert '  "1,1" -> "2,0" [label="δ+α[1,1]∨"];' in lines
    assert '  "0,2" -> "2,0" [label="α[1,1]∨"];' in lines
    assert '  "1,1" -> "0,2" [label="δ-α[1,1]∨"];' in lines


def test_graph_dot_stage_inf_flips(capsys):
    status, out, _ = run_cli(
        capsys, "graph", "--rank", "1", "--weight", "2,0", "--stage", "inf",
        "--format", "dot",
    )
    assert status == 0
    assert '  "0,2" -> "1,1" [label="δ-α[1,1]∨"];' in out.splitlines()


def test_graph_trivial(capsys):
    status, out, _ = run_cli(
        capsys, "graph", "--rank", "2", "--weight", "1,1,1", "--stage", "0",
        "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["vertices"] == [[1, 1, 1]]
    assert payload["edges"] == []


def test_graph_rejects_bad_stage(capsys):
    status, _, err = run_cli(
        capsys, "graph", "--rank", "1", "--weight", "2,0", "--stage", "-3"
    )
    assert status == 2
    assert "stage" in err


def test_graph_past_the_interval_cap_exits_2(capsys):
    """36,961 weights lie below (6,5,4,3,2,1,0); the cap is checked before any is built."""
    status, out, err = run_cli(
        capsys, "graph", "--rank", "6", "--weight", "6,5,4,3,2,1,0", "--max-elements", "10000"
    )
    assert status == 2
    assert out == ""
    assert err == (
        "error: interval below (6, 5, 4, 3, 2, 1, 0) at rank 6 has 36961 weights, "
        "exceeding the cap of 10000\n"
    )


def test_graph_within_the_interval_cap(capsys):
    status, out, _ = run_cli(
        capsys, "graph", "--rank", "1", "--weight", "2,0", "--max-elements", "3"
    )
    assert status == 0
    assert out.startswith("# graph base=2,0 stage=0 vertices=3\n")


# -- recharge and hecke -----------------------------------------------------------


def test_recharge_output(capsys):
    status, out, _ = run_cli(
        capsys, "recharge", "--rank", "1", "--weight", "2,0", "--stage", "0"
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "# recharge shape=2,0 stage=0"
    # Z=1 on the single atom; lengths are 2, 0, 1
    assert lines[1:] == ["0\t2,0\t-1", "1\t1,1\t1", "2\t0,2\t0"]


def test_recharge_json_doubled(capsys):
    status, out, _ = run_cli(
        capsys, "recharge", "--rank", "1", "--weight", "2,0", "--stage", "inf",
        "--format", "json",
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["stage"] == "inf"
    assert payload["recharge_doubled"] == {"0": -2, "1": 0, "2": 2}


def test_hecke_output(capsys):
    status, out, _ = run_cli(capsys, "hecke", "--rank", "2", "--weight", "2,1,0")
    assert status == 0
    assert out.splitlines() == ["mu=2,1,0\ta=1", "mu=1,1,1\ta=v^2"]


# -- verify ------------------------------------------------------------------------


def test_verify_passes(capsys):
    status, out, _ = run_cli(
        capsys, "verify", "--suite", "gammam", "--rank", "2", "--max-weight", "4"
    )
    assert status == 0
    assert "failures=0" in out


def test_verify_oracles_small(capsys):
    status, out, _ = run_cli(
        capsys, "verify", "--suite", "oracles", "--rank", "1", "--max-weight", "6"
    )
    assert status == 0
    assert "failures=0" in out


@pytest.mark.parametrize("max_weight", ["-1", "-3"])
def test_verify_negative_max_weight_exits_2(capsys, max_weight):
    """A sweep with no shapes checks nothing, so it must not report success."""
    assert run_cli(capsys, "verify", "--suite", "all", f"--max-weight={max_weight}") == (
        2,
        "",
        f"error: max weight must be nonnegative, got {max_weight}\n",
    )


def test_verify_max_weight_0_checks_the_empty_shape(capsys):
    """Max weight 0 is the smallest sweep, the empty shape alone: it runs and passes."""
    status, out, _ = run_cli(capsys, "verify", "--suite", "all", "--rank", "2", "--max-weight", "0")
    assert status == 0
    assert out == "suite=all rank=2 max_weight=0 cases=26 failures=0\n"


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--suite", "bogus"])
    assert excinfo.value.code == 2


def test_verify_failure_exits_1(capsys, monkeypatch):
    def fake_run_verify(suite, rank, max_weight, max_elements):
        report = VerifyReport(suite)
        report.record("constant-z", False, "corrupted fixture", "pass", "fail")
        return report

    monkeypatch.setattr(cli, "run_verify", fake_run_verify)
    status, out, _ = run_cli(capsys, "verify", "--suite", "atoms")
    assert status == 1
    assert "FAIL corrupted fixture: expected pass, got fail" in out
    assert "cases=1 failures=1" in out


# -- error handling -----------------------------------------------------------------


def test_invalid_mu_exits_2(capsys):
    status, _, err = run_cli(
        capsys, "kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "1,2,0"
    )
    assert status == 2
    assert "not dominant" in err


def test_invalid_partition_exits_2(capsys):
    status, _, err = run_cli(capsys, "crystal", "--rank", "2", "--weight", "1,2,0")
    assert status == 2
    assert "weakly decreasing" in err


def test_too_many_parts_exits_2(capsys):
    status, _, err = run_cli(capsys, "crystal", "--rank", "1", "--weight", "1,1,1")
    assert status == 2


@pytest.mark.parametrize(
    "request_args, err",
    [
        ("--weight 6,4,2 --mu 7,5", "error: mu = (7, 5, 0, 0, 0, 0) is not below lambda = (6, 4, 2, 0, 0, 0)\n"),
        ("--weight 6,4,2 --mu 1,2,3,3,3", "error: mu = (1, 2, 3, 3, 3, 0) is not dominant\n"),
        ("--weight 6,4,2 --mu 1,1 --method ls", "error: coordinate sums differ (2 vs 12): weights lie in different root-lattice cosets\n"),
        (
            "--weight 6,4,2 --mu 7,5 --max-elements 100",
            "error: crystal of shape (6, 4, 2, 0, 0, 0) at rank 5 has 62370 elements, exceeding the cap of 100\n",
        ),
        ("--weight 4,6,2 --mu 7,5 --max-elements 100", "error: shape (4, 6, 2) is not weakly decreasing\n"),
    ],
    ids=["not-below", "not-dominant", "wrong-sum", "cap-before-mu", "shape-before-cap"],
)
def test_bad_kostka_request_fails_before_enumeration(capsys, monkeypatch, request_args, err):
    """Shape, then size cap, then mu: each is checked before a tableau of B(6,4,2) at rank 5 is listed."""
    enumerated = []
    monkeypatch.setattr(crystal_module, "semistandard_tableaux", lambda *args: enumerated.append(args) or iter(()))
    assert run_cli(capsys, "kostka", "--rank", "5", *request_args.split()) == (2, "", err)
    assert enumerated == []


def test_parser_is_built_once(capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    argv = ("kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "1,1,1")
    assert run_cli(capsys, *argv) == (0, "q^2 + q\n", "")
    with pytest.raises(SystemExit):
        cli.main(["kostka", "--rank", "2"])
    assert "the following arguments are required: --weight, --mu" in capsys.readouterr().err
    assert run_cli(capsys, *argv) == (0, "q^2 + q\n", "")
    assert builds == [1]
    assert cli._parser().format_help() == build().format_help()


def test_size_cap_exits_2(capsys):
    status, _, err = run_cli(
        capsys, "crystal", "--rank", "2", "--weight", "2,1,0", "--max-elements", "3"
    )
    assert status == 2
    assert "cap" in err


def test_size_cap_at_a_huge_rank_exits_2_at_once():
    """B(1) at rank 2,000,000 has 2,000,001 elements: the cap check strips and pads the shape in linear time.

    Refused in about 0.6 s, interpreter start included; a check quadratic
    in the rank runs for hours, so the subprocess timeout ends it.
    """
    argv = ["atoms", "--rank", "2000000", "--weight", "1"]
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from crystalcharge.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=5)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: crystal of shape (1, 0, 0, ")
    assert done.stderr.endswith(") at rank 2000000 has 2000001 elements, exceeding the cap of 2000000\n")
    assert done.stderr.count("\n") == 1


def test_bad_rank_exits_2(capsys):
    status, _, err = run_cli(capsys, "crystal", "--rank", "0", "--weight", "1")
    assert status == 2


def test_bad_csv_exits_2(capsys):
    status, _, err = run_cli(capsys, "crystal", "--rank", "2", "--weight", "2,x,0")
    assert status == 2


# -- determinism and round trips ------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "1,1,1"),
        ("crystal", "--rank", "2", "--weight", "2,1,0", "--format", "json"),
        ("atoms", "--rank", "2", "--weight", "2,1,0", "--format", "json"),
        ("graph", "--rank", "1", "--weight", "3,1", "--stage", "2", "--format", "dot"),
        ("recharge", "--rank", "2", "--weight", "2,1,0", "--stage", "inf"),
        ("hecke", "--rank", "2", "--weight", "3,1,0"),
    ],
)
def test_byte_identical_reruns(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_crystal_json_round_trip(capsys):
    status, out, _ = run_cli(
        capsys, "crystal", "--rank", "2", "--weight", "2,1,0", "--format", "json"
    )
    assert status == 0
    data = json.loads(out)
    reference = Crystal.generate((2, 1, 0), 2)
    assert [rec["id"] for rec in data["elements"]] == list(range(reference.size))
    assert tuple(tuple(map(tuple, rec["rows"])) for rec in data["elements"]) == reference.elements
    assert [(edge["i"], edge["from"], edge["to"]) for edge in data["edges"]] == [
        (i, x, reference.f(i, x))
        for i in (1, 2)
        for x in range(reference.size)
        if reference.f(i, x) is not None
    ]


def test_cache_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "1,1,1", "--cache", "d"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache d" in capsys.readouterr().err


def test_out_in_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "out.txt"
    status, out, err = run_cli(
        capsys, "kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "1,1,1", "--out", str(target)
    )
    assert (status, out) == (2, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_failed_out_write_leaves_no_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    argv = ("kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "1,1,1", "--out", str(target))
    write_text = Path.write_text

    def write_half(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", write_half)
    status, out, err = run_cli(capsys, *argv)
    monkeypatch.undo()
    assert (status, out) == (2, "")
    assert err == f"error: [Errno 28] No space left on device: '{target}'\n"
    assert list(tmp_path.iterdir()) == []
    assert run_cli(capsys, *argv) == (0, "", "")
    assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]
    assert target.read_text(encoding="utf-8") == "q^2 + q\n"


def test_out_follows_symlink_and_writes_pipes_directly(capsys, tmp_path):
    argv = ("kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "1,1,1", "--out")
    real = tmp_path / "real.txt"
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    assert run_cli(capsys, *argv, str(link)) == (0, "", "")
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == "q^2 + q\n"

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli(capsys, *argv, str(fifo)) == (0, "", "")
        assert os.read(reader, 1024) == b"q^2 + q\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fifo", "link.txt", "real.txt"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_direct_out_write_names_the_path(capsys):
    argv = ("kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "1,1,1", "--out", "/dev/full")
    assert run_cli(capsys, *argv) == (2, "", "error: [Errno 28] No space left on device: '/dev/full'\n")


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    status, out, _ = run_cli(
        capsys,
        "kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "1,1,1",
        "--out", str(target),
    )
    assert status == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == "q^2 + q\n"


def test_run_verify_rejects_unknown_suite_directly():
    from crystalcharge.verify import run_verify

    with pytest.raises(ValueError):
        run_verify("bogus")
