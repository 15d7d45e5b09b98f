"""
Self-tests of the benchmark: deterministic inputs, non-vacuous checks, tiny runs.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

These tests exercise the benchmark's own code; they are not part of the
package's test suite and take about a minute.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_run(name: str, seed: int = 3, seconds: float = 0.5):
    """Set up a tiny workload, run its timed phase and return (api, workload, records)."""
    api = run.load_api()
    workload = WORKLOADS[name](seed, tiny=True)
    records, _ = run.timed_phase(workload, api, seconds)
    return api, workload, records


def failed(workload, api, records) -> int:
    for rec in records:
        rec.op.failed = False
    run.check(workload, api, records)
    return sum(1 for r in records if r.op.failed)


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, cls in WORKLOADS.items():
            for tiny in (False, True):
                a, b = cls(7, tiny), cls(7, tiny)
                self.assertEqual(a.params(), b.params(), name)
                first = [(op.kind, op.args) for p in islice(a.passes(), 3) for op in p]
                second = [(op.kind, op.args) for p in islice(b.passes(), 3) for op in p]
                self.assertEqual(first, second, name)

    def test_seed_changes_inputs(self):
        for name, cls in WORKLOADS.items():
            seen = set()
            for seed in range(6):
                w = cls(seed)
                seen.add(json.dumps([w.params(), [(o.kind, repr(o.args))
                                                  for o in next(w.passes())]]))
            self.assertGreater(len(seen), 1, name)


class OraclesAgreeWithPackageAtSeed(unittest.TestCase):
    """The independent oracles reproduce the package's own answers on small shapes."""

    SHAPES = [(2, (3, 1, 0)), (3, (3, 2, 1, 0)), (3, (4, 2, 0, 0)), (4, (2, 2, 1, 0, 0))]

    def test_dimensions_and_tableaux(self):
        pkg = run.load_api().pkg
        for rank, lam in self.SHAPES:
            crystal = pkg.Crystal.generate(lam, rank)
            self.assertEqual(oracle.weyl_dim(lam), crystal.size)
            for mu in oracle.dominant_below(lam):
                self.assertEqual(oracle.kostka_number(lam, mu), len(crystal.elements_of_weight(mu)))
                got = sorted(oracle.tableaux_of_content(lam, mu))
                want = sorted(crystal.elements[x] for x in crystal.elements_of_weight(mu))
                self.assertEqual(got, want)


class ChecksAreNotVacuous(unittest.TestCase):
    """A corrupted response makes each workload's checker report a failure."""

    def assert_caught(self, name, corrupt):
        api, workload, records = tiny_run(name)
        self.assertGreater(len(records), 0)
        self.assertEqual(failed(workload, api, records), 0, f"{name} fails untouched")
        for make_bad in corrupt:
            bad = copy.deepcopy(records)
            make_bad(bad)
            self.assertGreater(failed(workload, api, bad), 0, f"{name}: {make_bad.__name__}")

    def test_kostka_cold(self):
        def coefficient(records):
            code, text = records[0].response
            payload = json.loads(text)
            key = next(iter(payload["kostka"]))
            payload["kostka"][key] += 1
            records[0].response = (code, json.dumps(payload))

        def route(records):
            # same value at q=1, different exponent: only the route comparison sees it
            for rec in records:
                code, text = rec.response
                payload = json.loads(text)
                if len(payload["kostka"]) == 1:
                    (e, c), = payload["kostka"].items()
                    payload["kostka"] = {str(int(e) + 2): c}
                    rec.response = (code, json.dumps(payload))
                    return
            raise AssertionError("no single-term answer to corrupt")

        def exit_code(records):
            records[0].response = (2, "")

        self.assert_caught("kostka-cold", [coefficient, route, exit_code])

    def test_verify_sweep(self):
        def fewer_cases(records):
            suite, code, text = records[0].response[0]
            records[0].response[0] = (suite, code, text.replace(" cases=", " cases=1"))

        def a_failure(records):
            suite, code, text = records[0].response[1]
            records[0].response[1] = (suite, 1, text.replace("failures=0", "failures=1"))

        self.assert_caught("verify-sweep", [fewer_cases, a_failure])


class TinyRunsComplete(unittest.TestCase):
    """Every workload completes a tiny run and reports every metric BENCHMARK.json names."""

    def run_all(self, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_end_to_end(self):
        result = self.run_all(0)
        self.assertTrue(result["correct"])
        for name in WORKLOADS:
            for metric in BENCHMARK["end_to_end"]:
                self.assertIn(f"{name}/{metric['name']}", result["metrics"])

    def test_traced(self):
        result = self.run_all(1)
        self.assertTrue(result["correct"])
        for name in WORKLOADS:
            for metric in BENCHMARK["per_layer"]:
                self.assertEqual(result["metrics"][f"{name}/{metric['name']}"]["unit"],
                                 metric["unit"])

    def test_interaction_table_names_every_layer_metric(self):
        table = json.loads((HERE / "interactions.json").read_text(encoding="utf-8"))["layers"]
        self.assertEqual(sorted(table), sorted(m["name"] for m in BENCHMARK["per_layer"]))
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for row in table.values():
            for metric, workload in row["moves"]:
                self.assertIn(metric, names)
                self.assertIn(workload, WORKLOADS)
            for workload in row["no_change"]:
                self.assertIn(workload, WORKLOADS)


class MissingPackage(unittest.TestCase):
    def test_refuses_without_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            bench = Path(tmp) / "perfbench"
            bench.mkdir()
            for path in HERE.glob("*.py"):
                (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "kostka-cold", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
