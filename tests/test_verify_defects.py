"""Planted defects that the table-driven checks of the verify suites must report.

conjugator-choice composes s_i rows into crystal permutations, and the
Weyl average reads a per-element summand table; a crystal with one
corrupted s_i image must still fail conjugator-choice, with the count a
case-by-case comparison of tilde_op gives, and gamma-divisible or
charge=gamma.  edge-labels counts each view's bad edges from the
interval's edges, reflecting each edge once per orientation; a graph
with one corrupted label must fail that family in every view holding the
edge, with the counts the views' own edge lists give.  kostka's "new"
route reads eps on reading words through charge_kostka's
unmatched_letters; a kernel that counts one unmatched 2 too many must
fail new=ls, new=llt and reconstruction, which compare that route with
routes that do not use it, and leave charge=gamma, which reads the
tables, passing.
"""

from itertools import permutations

import pytest

from crystalcharge import charge_kostka, verify
from crystalcharge.affine_graph import STAGE_INFINITY, AffineCoroot, IntervalGraph, apply_affine_reflection
from crystalcharge.crystal import Crystal, conjugating_permutation, normalize_shape
from crystalcharge.root_data import format_weight, positive_roots
from crystalcharge.verify import (
    VerifyFailure,
    VerifyReport,
    check_arrows,
    check_hecke,
    check_oracles,
    check_strings,
    sweep_shapes,
)

MAX_ELEMENTS = 2_000_000
SHAPE = (2, 1, 0, 0)


def corrupt_si(monkeypatch, i, x, image):
    """Crystal.generate, with s_i(x) of B(SHAPE) at rank 3 replaced by image."""
    generate = Crystal.generate.__func__

    def corrupted(cls, shape, rank, max_elements=MAX_ELEMENTS):
        c = generate(cls, shape, rank, max_elements)
        if (c.shape, rank) == (SHAPE, 3):
            row = list(c._si[i - 1])
            assert row[x] != image
            row[x] = image
            c._si = c._si[: i - 1] + (tuple(row),) + c._si[i:]
        return c

    monkeypatch.setattr(Crystal, "generate", classmethod(corrupted))


def conjugator_choice_case_by_case(c):
    """How many (root, conjugator, element, direction) cases tilde_op answers differently from the default."""
    n = c.rank
    bad = 0
    for beta in positive_roots(n):
        j, k = beta
        for u in permutations(range(n + 1)):
            if (u[n - 1], u[n]) != (j - 1, k) or u == conjugating_permutation(n, beta):
                continue
            for x in range(c.size):
                for direction in ("f", "e"):
                    bad += c.tilde_op(direction, beta, x) != c.tilde_op(direction, beta, x, u=u)
    return bad


@pytest.mark.parametrize("x, image, gamma_check", [(0, 1, "charge=gamma"), (2, 8, "gamma-divisible")])
def test_corrupted_reflection_fails_conjugator_choice_and_gamma(monkeypatch, x, image, gamma_check):
    corrupt_si(monkeypatch, 1, x, image)
    strings, oracles = VerifyReport("strings"), VerifyReport("oracles")
    check_strings(strings, 3, sum(SHAPE), MAX_ELEMENTS)
    check_oracles(oracles, 3, sum(SHAPE), MAX_ELEMENTS)

    bad = conjugator_choice_case_by_case(Crystal.generate(SHAPE, 3))
    assert bad > 0
    assert [f for f in strings.failures if f.check == "conjugator-choice"] == [
        VerifyFailure("conjugator-choice", f"n=3 lam={format_weight(SHAPE)} conjugator choice independence", "0", str(bad))
    ]
    assert gamma_check in {f.check for f in oracles.failures}


def corrupt_first_reversible_label(monkeypatch):
    """interval_graph, as verify calls it, with its first reversible edge one level higher.

    Returns a dict that collects the corrupted edge's (src, dst) per base.
    """
    direct = verify.interval_graph
    corrupted = {}

    def build(lambda_prime):
        graph = direct(lambda_prime)
        edges = list(graph.edges)
        reversible = [p for p, edge in enumerate(edges) if edge[3] is not None]
        if not reversible:
            return graph
        src, dst, label, index = edges[reversible[0]]
        edges[reversible[0]] = (src, dst, AffineCoroot(label.level + 1, label.root, label.sign), index)
        corrupted[graph.base] = (src, dst)
        return IntervalGraph(graph.base, graph.vertices, tuple(edges))

    monkeypatch.setattr(verify, "interval_graph", build)
    return corrupted


def test_corrupted_label_fails_edge_labels_in_every_view_holding_it(monkeypatch):
    rank, max_weight = 2, 4
    clean = VerifyReport("arrows")
    check_arrows(clean, rank, max_weight, MAX_ELEMENTS)
    corrupted = corrupt_first_reversible_label(monkeypatch)
    report = VerifyReport("arrows")
    check_arrows(report, rank, max_weight, MAX_ELEMENTS)
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


def test_miscounted_word_eps_fails_the_routes_compared_with_new(monkeypatch):
    rank, max_weight = 3, 4
    kernel = charge_kostka.unmatched_letters

    def miscounted(word, i):
        """eps_1 one too high wherever an unmatched 2 is left."""
        lo, hi = kernel(word, i)
        return (lo, hi + hi[-1:]) if i == 1 else (lo, hi)

    monkeypatch.setattr(charge_kostka, "unmatched_letters", miscounted)
    oracles, hecke = VerifyReport("oracles"), VerifyReport("hecke")
    check_oracles(oracles, rank, max_weight, MAX_ELEMENTS)
    check_hecke(hecke, rank, max_weight, MAX_ELEMENTS)
    failed = {f.check for f in oracles.failures + hecke.failures}
    assert {"new=ls", "new=llt", "reconstruction"} <= failed
    assert oracles.counts["charge=gamma"] > 0
    assert "charge=gamma" not in failed
