"""
Spans and counters around the package's public functions, installed from outside.

The tracer replaces each listed function by a timing wrapper in every
crystalcharge module that holds it, and puts the originals back on
uninstall; the package source is untouched.  Structural calls (cli.main,
generate, decompose, build_graph, kostka, the verify suites, ...) become
spans with name, id, parent, request id, start and end.  Hot leaf calls
(bruhat_leq_dominant, atomic_number, ls_word_charge, the Weyl average)
run up to millions of times per op, so they are aggregated into calls and
seconds per (leaf, parent span) instead of being stored one by one; their
time still counts as child time of the enclosing span.  A span's self
time is its duration minus the time of the wrapped calls inside it.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
import tracemalloc
from time import perf_counter

# (module, attribute, span name, kind); kind "span" keeps every call, "leaf" aggregates
TARGETS = (
    ("cli", "main", "cli.main", "span"),
    ("crystal", "Crystal.generate", "crystal.generate", "span"),
    ("atoms", "decompose", "atoms.decompose", "span"),
    ("atoms", "atomic_number", "atoms.atomic_number", "leaf"),
    ("affine_graph", "build_graph", "affine_graph.build_graph", "span"),
    ("affine_graph", "build_interval", "affine_graph.build_interval", "span"),
    ("affine_graph", "stabilization_stage", "affine_graph.stabilization_stage", "span"),
    ("charge_kostka", "kostka", "charge_kostka.kostka", "span"),
    ("charge_kostka", "hecke_atomic_expansion", "charge_kostka.hecke", "span"),
    ("charge_kostka", "swapping_map", "charge_kostka.swapping_map", "span"),
    ("charge_kostka", "ls_word_charge", "charge_kostka.ls_word_charge", "leaf"),
    ("charge_kostka", "llt_gamma_raw", "charge_kostka.llt_gamma", "leaf"),
    ("root_data", "bruhat_leq_dominant", "root_data.bruhat_leq_dominant", "leaf"),
    ("verify", "check_oracles", "verify.oracles", "suite"),
    ("verify", "check_atoms", "verify.atoms", "suite"),
    ("verify", "check_strings", "verify.strings", "suite"),
    ("verify", "check_arrows", "verify.arrows", "suite"),
    ("verify", "check_gammam", "verify.gammam", "suite"),
    ("verify", "check_swapping", "verify.swapping", "suite"),
    ("verify", "check_hecke", "verify.hecke", "suite"),
)

SUITES = tuple(name.split(".")[1] for _, _, name, kind in TARGETS if kind == "suite")


class _Frame:
    __slots__ = ("name", "id", "parent", "start", "child")

    def __init__(self, name, span_id, parent, start):
        self.name, self.id, self.parent, self.start, self.child = name, span_id, parent, start, 0.0


class Tracer:
    """In-memory spans and counters for one traced phase."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, id, parent, request, start, end, self)
        self.stack: list[_Frame] = []
        self.leaves: dict[tuple[str, str], list] = {}  # (leaf, parent name) -> [calls, seconds]
        self.counts: dict[str, float] = {}
        self.intervals: set = set()
        self.largest = None  # (elements, shape, rank) of the largest crystal generated
        self.request = 0
        self._next = 0
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name: str) -> _Frame:
        self._next += 1
        parent = self.stack[-1].id if self.stack else None
        frame = _Frame(name, self._next, parent, perf_counter())
        self.stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame.start
        if self.stack:
            self.stack[-1].child += duration
        self.spans.append((frame.name, frame.id, frame.parent, self.request,
                           frame.start, end, duration - frame.child))

    @contextmanager
    def op(self, request: int):
        """The root span of one benchmark op; its spans carry the request id."""
        self.request = request
        frame = self._open("op")
        try:
            yield
        finally:
            self._close(frame)

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        stack, leaves = self.stack, self.leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                parent = stack[-1].name if stack else ""
                slot = leaves.get((name, parent))
                if slot is None:
                    slot = leaves[name, parent] = [0, 0.0]
                slot[0] += 1
                slot[1] += duration
                if stack:
                    stack[-1].child += duration

        return wrapper

    def _suite(self, name, fn):
        span = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(report, *args, **kwargs):
            before = report.cases
            try:
                return span(report, *args, **kwargs)
            finally:
                self.count(name + "_cases", report.cases - before)

        return wrapper

    def _after(self, name):
        """Result sizes recorded at the span boundary."""
        if name == "crystal.generate":
            def crystal(a, k, r):
                self.count("crystal.elements", r.size)
                if self.largest is None or r.size > self.largest[0]:
                    self.largest = (r.size, r.shape, r.rank)
            return crystal
        if name == "atoms.decompose":
            return lambda a, k, r: self.count("atoms.atoms", len(r.atoms))
        if name == "affine_graph.build_graph":
            def graph(a, k, r):
                self.count("affine_graph.graph_vertices", len(r.vertices))
                self.count("affine_graph.graph_edges", len(r.edges))
                self.intervals.add(tuple(r.base))
            return graph
        if name == "affine_graph.build_interval":
            return lambda a, k, r: self.count("affine_graph.interval_vertices", len(r))
        return None

    # -- installation ------------------------------------------------------------

    def install(self, api) -> None:
        """Wrap every target in every package module that holds it."""
        for home, attr, name, kind in TARGETS:
            owner = getattr(api, home)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._span(name, fn, self._after(name))
                self._patched.append((cls, meth, raw))
                setattr(cls, meth, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                continue
            original = getattr(owner, attr)
            if kind == "leaf":
                wrapped = self._leaf(name, original)
            elif kind == "suite":
                wrapped = self._suite(name, original)
            else:
                wrapped = self._span(name, original, self._after(name))
            for module in api.modules:
                if module.__dict__.get(attr) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        out: dict[str, list] = {}
        for name, _, _, _, start, end, self_s in self.spans:
            slot = out.setdefault(name, [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += end - start
            slot[2] += self_s
        for (name, _), (calls, seconds) in self.leaves.items():
            slot = out.setdefault(name, [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += seconds
            slot[2] += seconds
        return out

    def layer_metrics(self, overhead_frac: float, bytes_per_element: float,
                      output_bytes: int) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as (value, unit) pairs."""
        t = self.totals()
        c = self.counts

        def calls(name):
            return t.get(name, [0, 0.0, 0.0])[0]

        def incl(name):
            return t.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return t.get(name, [0, 0.0, 0.0])[2]

        def ratio(a, b):
            return a / b if b else 0.0

        elements = c.get("crystal.elements", 0)
        atoms = c.get("atoms.atoms", 0)
        bruhat_in_interval = self.leaves.get(
            ("root_data.bruhat_leq_dominant", "affine_graph.build_interval"), [0, 0.0])[0]
        m = {
            "crystal.generate_s": (incl("crystal.generate"), "s"),
            "crystal.generate_calls": (calls("crystal.generate"), "count"),
            "crystal.elements": (elements, "count"),
            "crystal.generate_us_per_element": (ratio(1e6 * incl("crystal.generate"), elements), "us"),
            "crystal.bytes_per_element": (bytes_per_element, "B"),
            "atoms.decompose_s": (incl("atoms.decompose"), "s"),
            "atoms.decompose_calls": (calls("atoms.decompose"), "count"),
            "atoms.atoms": (atoms, "count"),
            "atoms.atomic_number_s": (incl("atoms.atomic_number"), "s"),
            "atoms.atomic_number_calls": (calls("atoms.atomic_number"), "count"),
            "atoms.z_evals_per_atom": (ratio(calls("atoms.atomic_number"), atoms), "ratio"),
            "affine_graph.build_graph_s": (own("affine_graph.build_graph"), "s"),
            "affine_graph.build_graph_calls": (calls("affine_graph.build_graph"), "count"),
            "affine_graph.graph_vertices": (c.get("affine_graph.graph_vertices", 0), "count"),
            "affine_graph.graph_edges": (c.get("affine_graph.graph_edges", 0), "count"),
            "affine_graph.graphs_per_interval": (
                ratio(calls("affine_graph.build_graph"), len(self.intervals)), "ratio"),
            "affine_graph.stabilization_stage_s": (incl("affine_graph.stabilization_stage"), "s"),
            "affine_graph.build_interval_s": (incl("affine_graph.build_interval"), "s"),
            "affine_graph.build_interval_calls": (calls("affine_graph.build_interval"), "count"),
            "affine_graph.interval_yield": (
                ratio(c.get("affine_graph.interval_vertices", 0), bruhat_in_interval), "ratio"),
            "charge_kostka.kostka_s": (own("charge_kostka.kostka"), "s"),
            "charge_kostka.kostka_calls": (calls("charge_kostka.kostka"), "count"),
            "charge_kostka.ls_word_charge_s": (incl("charge_kostka.ls_word_charge"), "s"),
            "charge_kostka.hecke_s": (own("charge_kostka.hecke"), "s"),
            "charge_kostka.llt_gamma_s": (incl("charge_kostka.llt_gamma"), "s"),
            "charge_kostka.swapping_map_s": (incl("charge_kostka.swapping_map"), "s"),
            "charge_kostka.swapping_map_calls": (calls("charge_kostka.swapping_map"), "count"),
        }
        for suite in SUITES:
            m[f"verify.{suite}_s"] = (incl(f"verify.{suite}"), "s")
            m[f"verify.{suite}_cases"] = (c.get(f"verify.{suite}_cases", 0), "count")
        m.update({
            "cli.main_s": (own("cli.main"), "s"),
            "cli.requests": (calls("cli.main"), "count"),
            "cli.output_bytes": (output_bytes, "B"),
            "root_data.bruhat_leq_dominant_s": (incl("root_data.bruhat_leq_dominant"), "s"),
            "root_data.bruhat_leq_dominant_calls": (calls("root_data.bruhat_leq_dominant"), "count"),
            "trace.overhead_frac": (overhead_frac, "ratio"),
        })
        return m

    def dump(self, path, extra: dict) -> None:
        """Write spans, leaf aggregates and counters to one JSON file."""
        payload = dict(extra)
        payload["spans"] = [
            {"name": n, "id": i, "parent": p, "request": r, "start": s, "end": e, "self": own}
            for n, i, p, r, s, e, own in self.spans
        ]
        payload["leaves"] = [
            {"name": n, "parent": p, "calls": calls, "seconds": seconds}
            for (n, p), (calls, seconds) in sorted(self.leaves.items())
        ]
        payload["counts"] = self.counts
        path.write_text(json.dumps(payload), encoding="utf-8")


def generate_peak_bytes(api, shape, rank) -> tuple[int, int]:
    """tracemalloc peak while generating one crystal, and its element count.

    Run apart from the traced phase, since tracemalloc slows every
    allocation several-fold.
    """
    tracemalloc.start()
    try:
        crystal = api.pkg.Crystal.generate(shape, rank)
        _, peak = tracemalloc.get_traced_memory()
        return peak, crystal.size
    finally:
        tracemalloc.stop()
