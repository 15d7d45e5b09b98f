"""
The two benchmark workloads: input generation, execution and output checks.

Every workload draws its inputs from a seeded random.Random within fixed
size bands, sends them through the public API only (the CLI entry point
crystalcharge.cli.main with stdout captured) from one closed-loop
client, and checks every response against
oracle.py after the timed phase.  Input generation uses the
oracle, never the package, so that set-up time does not depend on the
code under test.

Ops come in passes, and a run measures whole passes only, so every run of
a workload covers the same mix of input sizes whatever the seed: the seed
picks which inputs fill each slot of a pass and their order.  An op is the
unit that one latency sample times:

    kostka-cold      one `kostka` CLI request
    verify-sweep     one sweep: the seven `verify --suite S` requests at a point
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import oracle

SUITES = ("oracles", "atoms", "strings", "arrows", "gammam", "swapping", "hecke")

# Verify case counts per suite at each menu point (rank, max weight), as
# the seed commit reports them.  A sweep that records fewer or more cases
# has changed the work it does and fails its check.
VERIFY_CASES = {
    (3, 7): {"oracles": 573, "atoms": 554, "strings": 152, "arrows": 684,
             "gammam": 228, "swapping": 3558, "hecke": 229},
    (2, 3): {"oracles": 54, "atoms": 63, "strings": 21, "arrows": 58,
             "gammam": 8, "swapping": 50, "hecke": 25},
}


@dataclass
class Op:
    kind: str
    args: dict
    failed: bool = False


@dataclass
class Record:
    op: Op
    latency: float
    response: object = None
    error: str | None = None


@dataclass
class Outcome:
    records: list[Record]
    failures: list[str] = field(default_factory=list)

    def fail(self, record: Record, why: str) -> None:
        record.op.failed = True
        self.failures.append(f"{record.op.kind} {record.op.args}: {why}")


def cli_request(api, argv: list[str]) -> tuple[int, str]:
    """Run one CLI request in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = api.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _csv(weight) -> str:
    return ",".join(str(v) for v in weight)


def _shapes(ranks, lo: int, hi: int) -> list[tuple[int, tuple[int, ...]]]:
    """(rank, shape) with lo <= dim B(shape) <= hi and at most rank nonzero parts.

    Sizes |shape| run up to the first one whose one-row crystal exceeds hi.
    """
    out = []
    for rank in ranks:
        total = 1
        while oracle.weyl_dim(oracle.pad((total,), rank)) <= hi:
            for parts in oracle.partitions(total, rank):
                lam = oracle.pad(parts, rank)
                if lo <= oracle.weyl_dim(lam) <= hi:
                    out.append((rank, lam))
            total += 1
    return out


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def params(self) -> dict:
        return {}

    def passes(self):
        """Endless seeded sequence of passes, each a list of ops."""
        raise NotImplementedError

    def run(self, api, op: Op):
        raise NotImplementedError

    def check(self, outcome: Outcome, api) -> None:
        """Mark every op whose response disagrees with the oracle as failed."""
        raise NotImplementedError

    def elements(self, op: Op) -> int | None:
        """Crystal elements the op builds or loads, where one crystal per op is built."""
        return None


# -- kostka-cold ---------------------------------------------------------------


class KostkaCold(Workload):
    """Cold `kostka --format json` requests; every request generates its crystal."""

    name = "kostka-cold"
    # (ranks, dim low, dim high): a pass asks both routes once for every shape
    # in every band.  The bands hold 8, 10 and 6 shapes, so the median falls
    # inside the middle band and the 90th percentile inside the top one,
    # never on a gap between bands.
    BANDS = (((3,), 300, 400), ((4,), 1000, 1300), ((5, 6), 3000, 3500))
    TINY_BANDS = (((2,), 10, 30), ((3,), 31, 80))

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.shapes = [(rank, lam, oracle.dominant_below(lam))
                       for ranks, lo, hi in (self.TINY_BANDS if tiny else self.BANDS)
                       for rank, lam in _shapes(ranks, lo, hi)]

    def params(self):
        return {"bands": self.TINY_BANDS if self.tiny else self.BANDS,
                "shapes_per_pass": len(self.shapes), "methods": ["new", "ls"]}

    def passes(self):
        # each shape walks through all its dominant mu in a seeded order, so a
        # run's mix of mu, and with it the ls route's cost, hardly depends on the seed
        rng = random.Random(self.seed)
        orders = [rng.sample(mus, len(mus)) for _, _, mus in self.shapes]
        for index in itertools.count():
            batch = []
            for (rank, lam, _), order in zip(self.shapes, orders):
                mu = order[index % len(order)]
                for method in ("new", "ls"):
                    batch.append(Op("kostka", {"rank": rank, "lam": lam, "mu": mu,
                                               "method": method}))
            rng.shuffle(batch)
            yield batch

    def run(self, api, op):
        a = op.args
        return cli_request(api, ["kostka", "--rank", str(a["rank"]), "--weight", _csv(a["lam"]),
                                 "--mu", _csv(a["mu"]), "--method", a["method"],
                                 "--format", "json"])

    def elements(self, op):
        return oracle.weyl_dim(op.args["lam"])

    def check(self, outcome, api):
        answers: dict = {}
        for rec in outcome.records:
            a = rec.op.args
            code, text = rec.response
            if code != 0:
                outcome.fail(rec, f"exit code {code}")
                continue
            try:
                poly = {int(e): c for e, c in json.loads(text)["kostka"].items()}
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                outcome.fail(rec, f"unreadable response: {exc}")
                continue
            if any(e % 2 or e < 0 for e in poly):
                outcome.fail(rec, f"exponents not nonnegative integers: {poly}")
            count = oracle.kostka_number(a["lam"], a["mu"])
            if sum(poly.values()) != count:
                outcome.fail(rec, f"value at q=1 is {sum(poly.values())}, expected {count}")
            answers.setdefault((a["rank"], a["lam"], a["mu"]), []).append((rec, poly))
        # a pass asks both routes for each (lambda, mu), so every answer has a partner
        for group in answers.values():
            reference = group[0][1]
            for rec, poly in group[1:]:
                if poly != reference:
                    outcome.fail(rec, f"routes disagree: {poly} != {reference}")


# -- verify-sweep ----------------------------------------------------------------


class VerifySweep(Workload):
    """The seven verify suites at one acceptance grid point, in a seeded order.

    The menu holds one point: (4, 6) costs about what (3, 8) costs but
    peaks at 88 MB against 107 MB, and (3, 7) fits several sweeps into
    one run, so a run reports a median rather than a single sweep.
    """

    name = "verify-sweep"
    MENU = ((3, 7),)
    TINY_MENU = ((2, 3),)

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        rng = random.Random(seed)
        self.point = rng.choice(self.TINY_MENU if tiny else self.MENU)
        self.suites = list(SUITES)
        rng.shuffle(self.suites)

    def params(self):
        return {"rank": self.point[0], "max_weight": self.point[1], "suites": self.suites}

    def passes(self):
        while True:
            yield [Op("sweep", {"rank": self.point[0], "max_weight": self.point[1]})]

    def run(self, api, op):
        out = []
        for suite in self.suites:
            code, text = cli_request(api, ["verify", "--suite", suite, "--rank",
                                           str(self.point[0]), "--max-weight",
                                           str(self.point[1])])
            out.append((suite, code, text))
        return out

    def check(self, outcome, api):
        pinned = VERIFY_CASES[self.point]
        for rec in outcome.records:
            for suite, code, text in rec.response:
                tail = text.strip().splitlines()[-1] if text.strip() else ""
                fields = dict(part.split("=", 1) for part in tail.split() if "=" in part)
                if code != 0 or fields.get("failures") != "0":
                    outcome.fail(rec, f"suite {suite}: exit {code}, {tail!r}")
                elif fields.get("cases") != str(pinned[suite]):
                    outcome.fail(rec, f"suite {suite}: {fields.get('cases')} cases, pinned {pinned[suite]}")

    def cases(self) -> int:
        return sum(VERIFY_CASES[self.point].values())


WORKLOADS = {w.name: w for w in (KostkaCold, VerifySweep)}
