"""Tests for the command-line interface: outputs, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from crystalcharge import cli
from crystalcharge.crystal import Crystal
from crystalcharge.verify import VerifyFailure, VerifyReport


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


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--suite", "bogus"])
    assert excinfo.value.code == 2


def test_verify_failure_exits_1(capsys, monkeypatch):
    def fake_run_verify(suite, rank, max_weight, max_elements):
        report = VerifyReport(suite)
        report.cases = 1
        report.failures.append(VerifyFailure("corrupted fixture", "pass", "fail"))
        return report

    monkeypatch.setattr(cli, "run_verify", fake_run_verify)
    status, out, _ = run_cli(capsys, "verify", "--suite", "atoms")
    assert status == 1
    assert "FAIL corrupted fixture" in out
    assert "failures=1" in out


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


def test_size_cap_exits_2(capsys):
    status, _, err = run_cli(
        capsys, "crystal", "--rank", "2", "--weight", "2,1,0", "--max-elements", "3"
    )
    assert status == 2
    assert "cap" in err


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
    rebuilt = Crystal.from_json_dict(json.loads(out))
    reference = Crystal.generate((2, 1, 0), 2)
    assert rebuilt._f == reference._f
    assert rebuilt._e == reference._e
    assert rebuilt.elements == reference.elements


def test_cache_round_trip(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    argv = (
        "crystal", "--rank", "2", "--weight", "2,1,0", "--format", "json",
        "--cache", cache,
    )
    first = run_cli(capsys, *argv)
    cache_files = list((tmp_path / "cache").iterdir())
    assert len(cache_files) == 1
    second = run_cli(capsys, *argv)  # served from cache
    assert first == second
    plain = run_cli(
        capsys, "crystal", "--rank", "2", "--weight", "2,1,0", "--format", "json"
    )
    assert plain[1] == first[1]
    # cached bytes equal the dump itself
    assert cache_files[0].read_text(encoding="utf-8") == first[1]


def test_cache_speeds_up_kostka(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    argv = (
        "kostka", "--rank", "2", "--weight", "3,2,0", "--mu", "2,2,1",
        "--cache", cache,
    )
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second == (0, "q^2 + q\n", "")


def _redirect_to_next(data):
    data["edges"][0]["to"] = (data["edges"][0]["to"] + 1) % 8
    return data


def _redirect_out_of_range(data):
    data["edges"][0]["to"] = 10**6
    return data


def _string_rows(data):
    data["elements"][1]["rows"] = [["1", "1"], ["2"]]
    return data


def _missing_weight(data):
    del data["elements"][2]["weight"]
    return data


def _list_payload(data):
    return list(data.values())


def _other_shape(data):
    return Crystal.generate((3, 0, 0), 2).to_json_dict()


@pytest.mark.parametrize(
    "corrupt",
    [_redirect_to_next, _redirect_out_of_range, _string_rows, _missing_weight, _list_payload, _other_shape],
)
def test_corrupted_cache_edge_exits_2(capsys, tmp_path, corrupt):
    cache = str(tmp_path / "cache")
    argv = (
        "kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "1,1,1",
        "--cache", cache,
    )
    assert run_cli(capsys, *argv) == (0, "q^2 + q\n", "")
    path = next((tmp_path / "cache").iterdir())
    data = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(corrupt(data)), encoding="utf-8")
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_cache_replay_respects_size_cap(capsys, tmp_path):
    argv = ("crystal", "--rank", "2", "--weight", "2,1,0", "--cache", str(tmp_path))
    assert run_cli(capsys, *argv)[0] == 0
    status, out, err = run_cli(capsys, *argv, "--max-elements", "3")
    assert (status, out) == (2, "")
    assert "cap" in err


def test_failed_cache_write_leaves_no_file(capsys, tmp_path, monkeypatch):
    argv = (
        "kostka", "--rank", "2", "--weight", "2,1,0", "--mu", "1,1,1",
        "--cache", str(tmp_path),
    )
    write_text = Path.write_text

    def write_half(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", write_half)
    with pytest.raises(OSError):
        cli.main(list(argv))
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []
    assert run_cli(capsys, *argv) == (0, "q^2 + q\n", "")
    assert [path.name for path in tmp_path.iterdir()] == ["crystal_r2_2-1-0.json"]


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
