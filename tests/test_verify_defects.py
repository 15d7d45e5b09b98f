"""Planted defects that the row-driven checks of the verify suites must report.

The families that conjugate operators read the crystal by rows: they
compose s_i rows into crystal permutations and gather the f_n, e_n or
f_(i+1) row between them, and the Weyl average gathers a per-element
summand along the s_i rows.  A plant in one table entry of B(2,1,0,0)
at rank 3, an s_i image, a raised eps_1, an f_3 image that leaves its
atom, an f_3 image removed, an e_3 image moved or an f_3 made
non-injective, must give in atoms, strings and arrows the failures, with
their counts, that the per-element walks the rows replaced gave.  The
atoms under each plant are the union-find's over the same s_i and f_n
edges, whatever e_n holds.  conjugator-choice must also count what a
case-by-case comparison of the tilde_op walk gives, and the s_i plants fail
gamma-divisible or charge=gamma.  phi is eps plus the weight pairing, so
a raised eps_1 must fail constant-z and string-sums, which compare eps
across elements.  edge-labels counts the interval's bad edges once,
since a label is an involution, and records the count for every view; a
graph with one corrupted label must fail that family in every view
holding the edge, with the counts the views' own edge lists give.  The wall checks
read one pass over each stage view; a graph whose first reversible edge
turns one stage late must fail the arrows update rule and swapping's
three-case delta and recharge drop as often as the per-vertex walk they
replaced did, and stabilization wherever that edge had the largest
index.  stabilization reads the wall tables: a graph whose last edge to
turn turns one stage late must fail it in every view holding that edge.
kostka's "new" route reads eps on reading words through charge_kostka's
unmatched_letters; a kernel that counts one unmatched 2 too many must
fail new=ls, new=llt and reconstruction, which compare that route with
routes that do not use it, and leave charge=gamma, which reads the
tables, passing.  Every suite of one run reads one crystal per shape, so
under run_verify("all") a planted s_i image fails conjugator-choice and
the gamma families exactly as it does under their own suites.
"""

from collections import Counter
from dataclasses import replace
from itertools import permutations

import pytest
from test_kernel_references import atom_components_reference, conjugated_op, conjugating_permutation, tilde_op

from crystalcharge import charge_kostka, verify
from crystalcharge.affine_graph import STAGE_INFINITY, AffineCoroot, apply_affine_reflection
from crystalcharge.atoms import decompose
from crystalcharge.crystal import Crystal, normalize_shape
from crystalcharge.root_data import format_weight, positive_roots
from crystalcharge.verify import VerifyFailure, run_verify, sweep_shapes

MAX_ELEMENTS = 2_000_000
SHAPE = (2, 1, 0, 0)


def corrupt_table(monkeypatch, name, i, x, value):
    """Crystal.generate, with entry x of row i of the table `name` of B(SHAPE) at rank 3 replaced by value."""
    generate = Crystal.generate.__func__

    def corrupted(cls, shape, rank, max_elements=MAX_ELEMENTS):
        c = generate(cls, shape, rank, max_elements)
        if (c.shape, rank) == (SHAPE, 3):
            table = getattr(c, name)
            row = list(table[i - 1])
            assert row[x] != value
            row[x] = value
            setattr(c, name, table[: i - 1] + (tuple(row),) + table[i:])
        return c

    monkeypatch.setattr(Crystal, "generate", classmethod(corrupted))


def conjugator_choice_case_by_case(c):
    """How many (root, conjugator, element, direction) cases the tilde_op walk answers differently from the default."""
    n = c.rank
    bad = 0
    for beta in positive_roots(n):
        j, k = beta
        for u in permutations(range(n + 1)):
            if (u[n - 1], u[n]) != (j - 1, k) or u == conjugating_permutation(n, beta):
                continue
            for x in range(c.size):
                for direction in ("f", "e"):
                    bad += tilde_op(c, direction, beta, x) != conjugated_op(c, direction, x, u)
    return bad


# (x, s_1 image planted at x, the gamma family it fails)
SI_PLANTS = [(0, 1, "charge=gamma"), (2, 8, "gamma-divisible")]


@pytest.mark.parametrize("x, image, gamma_check", SI_PLANTS)
def test_corrupted_reflection_fails_conjugator_choice_and_gamma(monkeypatch, x, image, gamma_check):
    corrupt_table(monkeypatch, "_si", 1, x, image)
    strings, oracles = run_verify("strings", 3, sum(SHAPE)), run_verify("oracles", 3, sum(SHAPE))

    bad = conjugator_choice_case_by_case(Crystal.generate(SHAPE, 3))
    assert bad > 0
    assert [f for f in strings.failures if f.check == "conjugator-choice"] == [
        VerifyFailure("conjugator-choice", f"n=3 lam={format_weight(SHAPE)} conjugator choice independence", "0", str(bad))
    ]
    assert gamma_check in {f.check for f in oracles.failures}


@pytest.mark.parametrize("x, image, gamma_check", SI_PLANTS)
def test_corrupted_reflection_reaches_every_suite_of_one_run(monkeypatch, x, image, gamma_check):
    corrupt_table(monkeypatch, "_si", 1, x, image)

    def failed(suite):
        families = {"conjugator-choice", "gamma-divisible", "charge=gamma"}
        return {f for f in run_verify(suite, 3, sum(SHAPE)).failures if f.check in families}

    shared = failed("all")
    assert {"conjugator-choice", gamma_check} <= {f.check for f in shared}
    assert shared == failed("strings") | failed("oracles")


@pytest.mark.parametrize("x", [0, 3, 7])
def test_raised_eps_fails_constant_z_and_string_sums(monkeypatch, x):
    """A raised eps_1 moves phi_1 with it, so the pairing family cannot see it; these two families must."""
    eps = Crystal.generate(SHAPE, 3).eps(1, x)
    corrupt_table(monkeypatch, "_eps", 1, x, eps + 1)
    atoms, strings = run_verify("atoms", 3, sum(SHAPE)), run_verify("strings", 3, sum(SHAPE))
    assert "constant-z" in {f.check for f in atoms.failures}
    assert "string-sums" in {f.check for f in strings.failures}


# (table, row i, element x, planted value) of B(SHAPE) at rank 3, and the (family, actual) failures of
# atoms, strings and arrows it gives; measured on the per-element walks the row families replaced
PLANTED_FAILURES = [
    pytest.param(
        "_si", 1, 0, 1,
        {
            "atoms": [("constant-z", "doubled Z values [7, 9] != 9"), ("lowering-depth", "1"),
                      ("tilde-components", "[(0,), (4,), (6,)]")],
            "strings": [("commutation", "2"), ("conjugator-choice", "7"), ("pairing", "2")],
            "arrows": [("per-element-infinity", "1")],
        },
        id="s1-0-to-1",
    ),
    pytest.param(
        "_si", 1, 2, 8,
        {
            "atoms": [("constant-z", "doubled Z values [5, 7, 11] != 7"), ("distinct-weights", "4 repeated weights"),
                      ("lowering-depth", "7"), ("multiplicity", "1"), ("tilde-components", "[(0, 6), (4,)]")],
            "strings": [("commutation", "1"), ("conjugator-choice", "12"), ("pairing", "2")],
            "arrows": [("per-element-infinity", "4")],
        },
        id="s1-2-to-8",
    ),
    pytest.param(
        "_eps", 1, 3, 2,
        {"atoms": [("constant-z", "doubled Z values [7, 9] != 7")], "strings": [("string-sums", "1")], "arrows": []},
        id="eps1-3-raised",
    ),
    pytest.param(
        "_f", 3, 0, 5,
        {
            "atoms": [("constant-z", "doubled Z values [5, 7] != 7"), ("distinct-weights", "4 repeated weights"),
                      ("lowering-depth", "9"), ("multiplicity", "1"), ("tilde-components", "[(0, 6), (4,)]")],
            "strings": [("conjugator-choice", "12"), ("string-sums", "1")],
            "arrows": [("per-element-infinity", "3")],
        },
        id="f3-0-leaves-its-atom",
    ),
    pytest.param(
        "_f", 3, 4, None, {"atoms": [("lowering-depth", "3")], "strings": [], "arrows": []}, id="f3-4-to-none"
    ),
    pytest.param(
        "_e", 3, 2, 15,
        {"atoms": [("closure", "3")], "strings": [("conjugator-choice", "12")], "arrows": []},
        id="e3-2-to-15",
    ),
    pytest.param(
        "_f", 3, 9, 5,
        {
            "atoms": [("constant-z", "doubled Z values [5, 7] != 7"), ("distinct-weights", "4 repeated weights"),
                      ("lowering-depth", "12"), ("multiplicity", "1"), ("tilde-components", "[(0, 6), (4,)]")],
            "strings": [("string-sums", "1")],
            "arrows": [("per-element-infinity", "3")],
        },
        id="f3-not-injective",
    ),
]


@pytest.mark.parametrize("name, i, x, value, expected", PLANTED_FAILURES)
def test_planted_defects_fail_the_row_families(monkeypatch, name, i, x, value, expected):
    """Each plant gives the failures its case-by-case walks gave; the atoms are the union-find's over the same edges."""
    corrupt_table(monkeypatch, name, i, x, value)
    got = {
        suite: sorted((f.check, f.actual) for f in run_verify(suite, 3, sum(SHAPE)).failures)
        for suite in ("atoms", "strings", "arrows")
    }
    assert got == expected
    c = Crystal.generate(SHAPE, 3)
    assert sorted(atom.element_ids for atom in decompose(c).atoms) == atom_components_reference(c)


def test_shifted_last_column_image_fails_commutation(monkeypatch):
    """The tilde row of every root (j, n), j < n, shifted by one id: the sum-root commutations ending at n see it."""
    tilde_rows = Crystal.tilde_rows.func

    def shifted(c):
        return {
            (j, k): [y if y is None or not j < k == c.rank else (y + 1) % c.size for y in row]
            for (j, k), row in tilde_rows(c).items()
        }

    monkeypatch.setattr(Crystal, "tilde_rows", property(shifted))
    report = run_verify("strings", 3, 4)
    assert Counter(f.check for f in report.failures) == {"commutation": 6}


def corrupt_first_reversible_edge(monkeypatch, corrupt, latest=False):
    """interval_graph, as verify calls it, with corrupt applied to its first reversible edge.

    With latest, the first of the reversible edges of largest index
    instead.  corrupt maps (src, dst, label, index), with src and dst
    vertex ids, to the planted edge.  Returns a dict that collects the
    corrupted edge's (src, dst) ids per base; restrictions share those ids.
    """
    direct = verify.interval_graph
    corrupted = {}

    def build(lambda_prime):
        graph = direct(lambda_prime)
        edges = list(graph.edges)
        reversible = [p for p, edge in enumerate(edges) if edge[3] is not None]
        if not reversible:
            return graph
        p = max(reversible, key=lambda p: (edges[p][3], -p)) if latest else reversible[0]
        src, dst, label, index = edges[p]
        edges[p] = corrupt(src, dst, label, index)
        corrupted[graph.base] = (src, dst)
        return replace(graph, edges=tuple(edges))

    monkeypatch.setattr(verify, "interval_graph", build)
    return corrupted


def corrupt_first_reversible_label(monkeypatch):
    """interval_graph, as verify calls it, with its first reversible edge one level higher."""
    return corrupt_first_reversible_edge(
        monkeypatch, lambda src, dst, label, index: (src, dst, AffineCoroot(label.level + 1, label.root, label.sign), index)
    )


def delay_first_reversible_edge(monkeypatch):
    """interval_graph, as verify calls it, with its first reversible edge turning one stage late."""
    return corrupt_first_reversible_edge(monkeypatch, lambda src, dst, label, index: (src, dst, label, index + 1))


def test_corrupted_label_fails_edge_labels_in_every_view_holding_it(monkeypatch):
    rank, max_weight = 2, 4
    clean = run_verify("arrows", rank, max_weight)
    corrupted = corrupt_first_reversible_label(monkeypatch)
    report = run_verify("arrows", rank, max_weight)
    assert report.counts["edge-labels"] == clean.counts["edge-labels"]

    expected = []
    holding = 0
    for shape in sweep_shapes(rank, max_weight):
        lam = normalize_shape(shape, rank)
        interval = verify.interval_graph((sum(lam),) + (0,) * rank).restrict(lam)
        edge = corrupted.get((sum(lam),) + (0,) * rank)
        holds = edge is not None and any((src, dst) == edge for src, dst, _, _ in interval.edges)
        stages = list(range(interval.stabilization_stage + 1)) + [STAGE_INFINITY]
        for stage in stages:
            g = interval.at(stage)
            bad = sum(1 for src, dst, label in g.edges if apply_affine_reflection(label, dst) != src)
            assert (bad > 0) == holds
            holding += holds
            if bad:
                case = f"n={rank} lam'={format_weight(lam)} stage {stage} edge labels reflect head to tail"
                expected.append(VerifyFailure("edge-labels", case, "0", str(bad)))
    assert holding > 0
    assert [f for f in report.failures if f.check == "edge-labels"] == expected


def test_late_edge_fails_the_wall_checks(monkeypatch):
    """A stage view's in-degrees turn one edge late: the update rule and the three-case delta must see it."""
    rank, max_weight = 3, 5
    delayed = delay_first_reversible_edge(monkeypatch)
    arrows, swapping = run_verify("arrows", rank, max_weight), run_verify("swapping", rank, max_weight)
    assert delayed
    assert Counter(f.check for f in arrows.failures) == {"update-rule": 8, "stabilization": 4}
    assert Counter(f.check for f in swapping.failures) == {"three-case-delta": 8, "recharge-drop": 4}


def test_last_edge_turned_late_fails_stabilization(monkeypatch):
    """The last edge to turn, turned one stage late: every view holding it must fail stabilization, read from the walls."""
    rank, max_weight = 3, 5
    delayed = corrupt_first_reversible_edge(
        monkeypatch, lambda src, dst, label, index: (src, dst, label, index + 1), latest=True
    )
    report = run_verify("arrows", rank, max_weight)
    expected = []
    for shape in sweep_shapes(rank, max_weight):
        lam = normalize_shape(shape, rank)
        top = (sum(lam),) + (0,) * rank
        interval = verify.interval_graph(top).restrict(lam)
        if any((src, dst) == delayed.get(top) for src, dst, _, _ in interval.edges):
            expected.append(f"n={rank} lam'={format_weight(lam)} stabilization at stage {interval.stabilization_stage}")
    assert len(expected) == 4
    assert [f.case for f in report.failures if f.check == "stabilization"] == expected


def test_miscounted_word_eps_fails_the_routes_compared_with_new(monkeypatch):
    rank, max_weight = 3, 4
    kernel = charge_kostka.unmatched_letters

    def miscounted(word, i):
        """eps_1 one too high wherever an unmatched 2 is left."""
        lo, hi = kernel(word, i)
        return (lo, hi + hi[-1:]) if i == 1 else (lo, hi)

    monkeypatch.setattr(charge_kostka, "unmatched_letters", miscounted)
    oracles, hecke = run_verify("oracles", rank, max_weight), run_verify("hecke", rank, max_weight)
    failed = {f.check for f in oracles.failures + hecke.failures}
    assert {"new=ls", "new=llt", "reconstruction"} <= failed
    assert oracles.counts["charge=gamma"] > 0
    assert "charge=gamma" not in failed
