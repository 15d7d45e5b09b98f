"""
Benchmark harness for crystalcharge.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload kostka-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each run imports the package from ./src, generates the workload's inputs
from the seed, drives the public API from one closed-loop client for
--seconds, checks every response against perfbench/oracle.py and prints
one `name = value unit` line per metric, an environment line, and as its
last line a JSON object {correct, attempted, failed, metrics}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
drives the API untraced for half of --seconds, then repeats the same ops
with spans wrapped around the package's public functions and reports the
per-layer ones.  Results and traces are also
written under .perfbench_out/.  The exit status is 0 when every check
passed, 1 when a check failed and 2 when the package cannot be loaded.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import sys  # noqa: E402

# compile the package from source on every set-up: no byte-code is read or written
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SRC = ROOT / "src"
sys.pycache_prefix = str(OUT / "no-pycache")
sys.path[:0] = [str(HERE), str(SRC)]

from tracer import Tracer, generate_peak_bytes  # noqa: E402
from workloads import WORKLOADS, Outcome, Record  # noqa: E402

SETUPS = 9
MODULES = ("root_data", "crystal", "atoms", "affine_graph", "charge_kostka", "verify", "cli")


class SetupError(RuntimeError):
    """The package under test cannot be imported from this checkout."""


def load_api() -> SimpleNamespace:
    """Import crystalcharge afresh from ./src, compiling it from source."""
    if not (SRC / "crystalcharge" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'crystalcharge'}")
    for name in [m for m in sys.modules if m == "crystalcharge" or m.startswith("crystalcharge.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    try:
        pkg = importlib.import_module("crystalcharge")
        mods = {name: importlib.import_module(f"crystalcharge.{name}") for name in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import crystalcharge: {exc}") from exc
    if Path(pkg.__file__).resolve().parent != (SRC / "crystalcharge").resolve():
        raise SetupError(f"crystalcharge imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(pkg=pkg, modules=[pkg, *mods.values()], **mods)


def setup(cls, seed: int, tiny: bool, start: float = STARTED):
    """Import the package and generate the workload's inputs, SETUPS times.

    Returns the last (api, workload) and every set-up duration; the first
    is measured from `start`, by default the start of this script.
    """
    durations, api, workload = [], None, None
    for _ in range(SETUPS):
        api = load_api()
        workload = cls(seed, tiny)
        now = time.perf_counter()
        durations.append(now - start)
        start = now
    return api, workload, durations


def timed_phase(workload, api, seconds: float, tracer=None, passes=None):
    """Closed loop over whole passes until the deadline, or over `passes` passes.

    Returns the records and the number of passes run.
    """
    records: list[Record] = []
    deadline = time.perf_counter() + seconds
    done = 0
    source = workload.passes()
    while passes is None or done < passes:
        if passes is None and done and time.perf_counter() >= deadline:
            break
        for op in next(source):
            scope = tracer.op(len(records)) if tracer is not None else nullcontext()
            began = time.perf_counter()
            try:
                with scope:
                    response = workload.run(api, op)
            except Exception:  # a crash of the code under test is a failed op, not a harness error
                records.append(Record(op, time.perf_counter() - began,
                                      error=traceback.format_exc(limit=-3)))
                continue
            records.append(Record(op, time.perf_counter() - began, response))
        done += 1
    return records, done


def check(workload, api, records) -> Outcome:
    outcome = Outcome([r for r in records if r.error is None])
    for rec in records:
        if rec.error is not None:
            rec.op.failed = True
            outcome.failures.append(f"{rec.op.kind} {rec.op.args}: {rec.error}")
    workload.check(outcome, api)
    return outcome


def output_bytes(response) -> int:
    """Bytes of CLI output in one op's response."""
    if isinstance(response, tuple) and len(response) == 2 and isinstance(response[1], str):
        return len(response[1].encode())
    if isinstance(response, list):
        return sum(len(text.encode()) for _, _, text in response)
    return 0


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "params": workload.params(),
    }


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    try:
        api, workload, setups = setup(WORKLOADS[args.workload], args.seed, args.tiny)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return measure(args, api, workload, setups)


def measure(args, api, workload, setups) -> int:
    gc.collect()
    # a traced run spends half its time untraced and replays the same passes
    # traced, so it lasts about as long as an untraced one
    began = time.perf_counter()
    records, passes = timed_phase(workload, api, args.seconds / 2 if args.trace else args.seconds)
    wall = time.perf_counter() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    all_records = list(records)
    extra: dict = {}

    if args.trace:
        gc.collect()
        tracer = Tracer()
        tracer.install(api)
        began = time.perf_counter()
        try:
            traced, _ = timed_phase(workload, api, args.seconds, tracer, passes)
        finally:
            tracer.uninstall()
        traced_wall = time.perf_counter() - began
        out_bytes = sum(output_bytes(r.response) for r in traced if r.error is None)
        all_records += traced
        biggest = tracer.largest
        gc.collect()
        peak, size = generate_peak_bytes(api, biggest[1], biggest[2]) if biggest else (0, 0)
        layer = tracer.layer_metrics(traced_wall / wall - 1, peak / size if size else 0.0,
                                     out_bytes)
        tracer.dump(OUT / f"trace-{workload.name}-seed{args.seed}.json",
                    {"workload": workload.name, "seed": args.seed,
                     "untraced_wall_s": wall, "traced_wall_s": traced_wall,
                     "ops": len(traced)})
        metrics = layer
    else:
        latencies = [r.latency for r in records]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(records) / wall, "1/s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_p90_s": (percentile(latencies, 90), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        extra = {"wall_s": (wall, "s"), "samples": (len(records), "count"),
                 "passes": (passes, "count")}
        elements = [workload.elements(r.op) for r in records]
        if None not in elements:
            extra["elements_per_s"] = (sum(elements) / wall, "1/s")
        if hasattr(workload, "cases"):
            extra["cases_per_s"] = (workload.cases() * len(records) / wall, "1/s")

    outcome = check(workload, api, all_records)
    attempted = len(all_records)
    failed = sum(1 for r in all_records if r.op.failed)
    extra["failed_frac"] = (failed / attempted, "ratio")

    if not args.trace:
        # set up SETUPS times more after the timed phase: the host's speed drifts
        # over tens of seconds, so set-ups taken at two moments of the run give a
        # steadier median than set-ups taken at one
        _, _, more = setup(type(workload), args.seed, args.tiny, time.perf_counter())
        metrics["setup_s"] = (statistics.median(setups + more), "s")

    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{name} = {value:.6g} {unit}")
    for line in outcome.failures[:20]:
        print(f"FAIL {line}")
    env = environment(args, workload)
    print("# env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "result": result,
                    "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                    "latencies": [r.latency for r in records],
                    "failures": outcome.failures[:200]}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own process, so peak RSS stays per workload."""
    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(f"   {line}")
        if proc.returncode != 0:
            status = max(status, proc.returncode)
            sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
