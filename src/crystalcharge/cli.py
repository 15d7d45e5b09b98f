"""
Command-line front end: compute, export, verify.

Verbs:

    kostka    one Kostka-Foulkes polynomial (text or JSON)
    crystal   dump a crystal with its operator tables
    atoms     the atomic decomposition of a crystal
    graph     a twisted Bruhat graph (text, DOT or JSON)
    recharge  recharge values of all elements at one stage
    hecke     atomic expansion coefficients
    verify    property sweeps; exits 1 when any check fails

Weights are entered as comma-separated partitions and the rank is
always explicit, since the same partition means different crystals at
different ranks.  Output is deterministic: identical invocations
produce byte-identical results.  Exit codes: 0 success, 1 verification
failure, 2 invalid input, a crystal or interval past --max-elements, or
an --out file that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .affine_graph import STAGE_INFINITY, Stage, build_graph, interval_size
from .atoms import decompose
from .charge_kostka import (
    KOSTKA_METHODS,
    hecke_atomic_expansion,
    kostka,
    recharge_table,
)
from .crystal import DEFAULT_MAX_ELEMENTS, Crystal, normalize_shape
from .root_data import format_weight
from .verify import SUITES, run_verify


def _parse_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def _parse_stage(text: str) -> Stage:
    if text == "inf":
        return STAGE_INFINITY
    try:
        stage = int(text)
    except ValueError:
        raise ValueError(f"stage must be a nonnegative integer or 'inf', got {text!r}")
    if stage < 0:
        raise ValueError(f"stage must be nonnegative, got {stage}")
    return stage


def _stage_json(stage: Stage):
    return "inf" if stage == STAGE_INFINITY else stage


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _load_crystal(args) -> Crystal:
    return Crystal.generate(_parse_csv(args.weight), args.rank, args.max_elements)


def _write_out(path: Path, text: str) -> None:
    """Write through a temporary file beside path, so a failed write leaves no file.

    Only regular files are replaced: a symlink is followed, and a device or
    pipe is written directly.  An OSError names path, not the temporary file.
    """
    if path.exists() and not path.is_file():
        path.write_text(text, encoding="utf-8")
        return
    target = path.resolve() if path.is_symlink() else path
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


# -- verb handlers -------------------------------------------------------------


def _cmd_kostka(args) -> tuple[str, int]:
    mu = _parse_csv(args.mu)
    crystal = _load_crystal(args)
    poly = kostka(crystal, mu, args.method)
    if args.format == "json":
        payload = {
            "rank": args.rank,
            "lambda": list(crystal.shape),
            "mu": list(mu) + [0] * (args.rank + 1 - len(mu)),
            "method": args.method,
            "kostka": poly.to_json_dict(),
            "text": poly.text(),
        }
        return _dumps(payload), 0
    return poly.text() + "\n", 0


def _cmd_crystal(args) -> tuple[str, int]:
    crystal = _load_crystal(args)
    if args.format == "json":
        return _dumps(crystal.to_json_dict()), 0
    lines = [
        f"# crystal rank={crystal.rank} shape={format_weight(crystal.shape)} elements={crystal.size}"
    ]
    for x, rows in enumerate(crystal.elements):
        rows_text = json.dumps([list(row) for row in rows], separators=(",", ":"))
        lines.append(f"{x}\t{rows_text}\t{format_weight(crystal.weights[x])}")
    return "\n".join(lines) + "\n", 0


def _cmd_atoms(args) -> tuple[str, int]:
    crystal = _load_crystal(args)
    dec = decompose(crystal)
    if args.format == "json":
        payload = {
            "rank": crystal.rank,
            "shape": list(crystal.shape),
            "atoms": [atom.to_json_dict() for atom in dec.atoms],
        }
        return _dumps(payload), 0
    lines = []
    for atom in dec.atoms:
        lines.append(
            f"highest_weight={format_weight(atom.highest_weight)} size={atom.size} z={atom.z}"
        )
    return "\n".join(lines) + "\n", 0


def _cmd_graph(args) -> tuple[str, int]:
    lam = normalize_shape(_parse_csv(args.weight), args.rank)
    stage = _parse_stage(args.stage)
    size = interval_size(lam)
    if size > args.max_elements:
        raise ValueError(
            f"interval below {lam} at rank {args.rank} has {size} weights, exceeding the cap of {args.max_elements}"
        )
    graph = build_graph(lam, stage)
    if args.format == "json":
        payload = {
            "base": list(graph.base),
            "stage": _stage_json(stage),
            "vertices": [list(mu) for mu in graph.vertices],
            "edges": [
                {"src": list(src), "dst": list(dst), "label": label.to_json_dict()}
                for src, dst, label in graph.edges
            ],
        }
        return _dumps(payload), 0
    if args.format == "dot":
        lines = [f'digraph "{format_weight(lam)} stage {_stage_json(stage)}" {{']
        for mu in graph.vertices:
            lines.append(f'  "{format_weight(mu)}";')
        for src, dst, label in graph.edges:
            lines.append(f'  "{format_weight(src)}" -> "{format_weight(dst)}" [label="{label.render()}"];')
        lines.append("}")
        return "\n".join(lines) + "\n", 0
    lines = [f"# graph base={format_weight(lam)} stage={_stage_json(stage)} vertices={len(graph.vertices)}"]
    for src, dst, label in graph.edges:
        lines.append(f"{format_weight(src)} -> {format_weight(dst)}\t{label.render()}")
    return "\n".join(lines) + "\n", 0


def _cmd_recharge(args) -> tuple[str, int]:
    crystal = _load_crystal(args)
    stage = _parse_stage(args.stage)
    dec = decompose(crystal)
    table = recharge_table(crystal, dec, stage)
    if args.format == "json":
        doubled = {}
        for x in range(crystal.size):
            value = 2 * table.values[x]
            if value.denominator != 1:
                raise ArithmeticError(f"recharge of element {x} is not a half-integer")
            doubled[str(x)] = int(value)
        payload = {
            "rank": crystal.rank,
            "shape": list(crystal.shape),
            "stage": _stage_json(stage),
            "recharge_doubled": doubled,
        }
        return _dumps(payload), 0
    lines = [f"# recharge shape={format_weight(crystal.shape)} stage={_stage_json(stage)}"]
    for x in range(crystal.size):
        lines.append(f"{x}\t{format_weight(crystal.weights[x])}\t{table.values[x]}")
    return "\n".join(lines) + "\n", 0


def _cmd_hecke(args) -> tuple[str, int]:
    crystal = _load_crystal(args)
    expansion = hecke_atomic_expansion(crystal)
    if args.format == "json":
        payload = {
            "rank": crystal.rank,
            "shape": list(crystal.shape),
            "coeffs": [
                {"mu": list(mu), "coeff": poly.to_json_dict()}
                for mu, poly in expansion.coeffs.items()
            ],
        }
        return _dumps(payload), 0
    lines = []
    for mu, poly in expansion.coeffs.items():
        lines.append(f"mu={format_weight(mu)}\ta={poly.text('v')}")
    return "\n".join(lines) + "\n", 0


def _cmd_verify(args) -> tuple[str, int]:
    report = run_verify(args.suite, args.rank, args.max_weight, args.max_elements)
    lines = []
    for failure in report.failures:
        lines.append(f"FAIL {failure.case}: expected {failure.expected}, got {failure.actual}")
    lines.append(
        f"suite={report.suite} rank={args.rank} max_weight={args.max_weight} "
        f"cases={report.cases} failures={len(report.failures)}"
    )
    return "\n".join(lines) + "\n", report.exit_status


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalcharge",
        description="Exact charge statistics and Kostka-Foulkes polynomials on type-A crystals.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, fmt_choices=("text", "json")):
        p.add_argument("--rank", type=int, required=True, help="rank n of the root system A_n")
        p.add_argument("--weight", type=str, required=True, help="partition, e.g. 2,1,0")
        p.add_argument("--format", choices=fmt_choices, default="text")
        p.add_argument("--out", type=str, default=None, help="write output to a file")
        p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)

    p = sub.add_parser("kostka", help="Kostka-Foulkes polynomial K_{lambda,mu}(q)")
    add_common(p)
    p.add_argument("--mu", type=str, required=True, help="dominant weight, e.g. 1,1,1")
    p.add_argument("--method", choices=KOSTKA_METHODS, default="new")
    p.set_defaults(handler=_cmd_kostka)

    p = sub.add_parser("crystal", help="dump a crystal and its operator tables")
    add_common(p)
    p.set_defaults(handler=_cmd_crystal)

    p = sub.add_parser("atoms", help="atomic decomposition of a crystal")
    add_common(p)
    p.set_defaults(handler=_cmd_atoms)

    p = sub.add_parser("graph", help="twisted Bruhat graph over a dominant weight")
    add_common(p, fmt_choices=("text", "dot", "json"))
    p.add_argument("--stage", type=str, default="0", help="stage: nonnegative integer or 'inf'")
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("recharge", help="stagewise recharge values of all elements")
    add_common(p)
    p.add_argument("--stage", type=str, default="0", help="stage: nonnegative integer or 'inf'")
    p.set_defaults(handler=_cmd_recharge)

    p = sub.add_parser("hecke", help="atomic expansion coefficients a_{mu,lambda}(v)")
    add_common(p)
    p.set_defaults(handler=_cmd_hecke)

    p = sub.add_parser("verify", help="run property sweeps")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--max-weight", type=int, default=4)
    p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "rank", 1) < 1:
        print("error: rank must be >= 1", file=sys.stderr)
        return 2
    try:
        text, status = args.handler(args)
        out_path = getattr(args, "out", None)
        if out_path is not None:
            _write_out(Path(out_path), text)
        else:
            sys.stdout.write(text)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
