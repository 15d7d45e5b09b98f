"""Tests for weight intervals and twisted Bruhat graphs."""

import pytest

from crystalcharge import affine_graph, charge_kostka, verify
from crystalcharge.affine_graph import (
    STAGE_INFINITY,
    AffineCoroot,
    apply_affine_reflection,
    arr_infinity_formula,
    build_graph,
    build_interval,
    interval_graph,
    interval_size,
    stabilization_stage,
    stage_reflection,
)
from crystalcharge.root_data import (
    LineOrder,
    bruhat_leq_dominant,
    dominant_interval,
    length,
    line_compare,
    weyl_apply_weight,
    transposition,
)
from crystalcharge.verify import partitions, run_verify, sweep_shapes


def graph_edge_set(graph):
    return {(src, dst, label) for src, dst, label in graph.edges}


# -- intervals ---------------------------------------------------------------------


def test_build_interval_examples():
    assert set(build_interval((2, 0))) == {(2, 0), (1, 1), (0, 2)}
    assert len(build_interval((2, 1, 0))) == 7
    assert build_interval((1, 1, 1)) == ((1, 1, 1),)


def test_build_interval_is_lexicographic():
    interval = build_interval((2, 1, 0))
    assert list(interval) == sorted(interval)


@pytest.mark.parametrize("lam", [(3, 1, 0), (2, 2, 1, 0), (4, 2, 1, 0), (3, 2, 1, 0, 0)])
def test_build_interval_matches_bounding_box(lam):
    """The orbit enumeration equals the filtered walk over [0, lam_0]^(n+1)."""
    from itertools import product

    rank = len(lam) - 1
    box = tuple(
        mu
        for mu in product(range(lam[0] + 1), repeat=rank + 1)
        if sum(mu) == sum(lam) and bruhat_leq_dominant(mu, lam)
    )
    assert build_interval(lam) == box


def test_build_interval_at_high_rank_is_one_orbit():
    """A weight with small parts costs its orbit, not (rank+1)! orderings."""
    units = tuple(tuple(int(i == j) for i in range(12)) for j in reversed(range(12)))
    assert build_interval((1,) + (0,) * 11) == units
    assert len(build_interval((2, 1) + (0,) * 18)) == 20 * 19 + 20 * 19 * 18 // 6


def test_interval_graph_at_rank_200_walks_only_roots_that_stay_inside():
    """Each unit vector is joined to the 200 others, so 20,100 edges in all."""
    graph = interval_graph((1,) + (0,) * 200)
    assert len(graph.vertices) == 201
    assert len(graph.edges) == 201 * 200 // 2


def test_build_interval_at_rank_600_does_not_recurse():
    """One rearrangement step per weight, so a long weight needs no deep call stack."""
    interval = build_interval((1,) + (0,) * 600)
    assert len(interval) == 601
    assert interval[0] == (0,) * 600 + (1,)
    assert interval[-1] == (1,) + (0,) * 600
    assert list(interval) == sorted(interval)


@pytest.mark.parametrize("rank, max_weight", [(1, 8), (2, 8), (3, 8), (4, 6)])
def test_interval_size_counts_the_interval(rank, max_weight):
    for shape in sweep_shapes(rank, max_weight):
        lam = shape + (0,) * (rank + 1 - len(shape))
        assert interval_size(lam) == len(build_interval(lam))


def test_build_interval_rejects_non_dominant():
    with pytest.raises(ValueError):
        build_interval((0, 2))


# -- graphs at small stages -----------------------------------------------------------


def test_stage0_graph_20():
    g = build_graph((2, 0), 0)
    assert graph_edge_set(g) == {
        ((1, 1), (2, 0), AffineCoroot(1, (1, 1), 1)),
        ((0, 2), (2, 0), AffineCoroot(0, (1, 1), 1)),
        ((1, 1), (0, 2), AffineCoroot(1, (1, 1), -1)),
    }
    assert g.arr((2, 0)) == 2
    assert g.arr((0, 2)) == 1
    assert g.arr((1, 1)) == 0


def test_stage1_graph_20_flips_one_edge():
    g = build_graph((2, 0), 1)
    assert ((0, 2), (1, 1), AffineCoroot(1, (1, 1), -1)) in graph_edge_set(g)
    assert g.arr((1, 1)) == 1
    assert g.arr((0, 2)) == 0
    assert g.arr((2, 0)) == 2


def test_stage_infinity_equals_stage_one_for_20():
    assert graph_edge_set(build_graph((2, 0), STAGE_INFINITY)) == graph_edge_set(
        build_graph((2, 0), 1)
    )


def test_trivial_graph():
    g = build_graph((1, 1, 1), 0)
    assert g.vertices == ((1, 1, 1),)
    assert g.edges == ()
    assert g.arr((1, 1, 1)) == 0


def test_arr_unknown_vertex():
    g = build_graph((2, 0), 0)
    with pytest.raises(ValueError):
        g.arr((3, -1))


def test_each_line_pair_is_one_edge():
    g = build_graph((2, 1, 0), 0)
    seen = set()
    for src, dst, _ in g.edges:
        pair = frozenset((src, dst))
        assert pair not in seen
        seen.add(pair)
    # every collinear pair of interval weights appears
    from crystalcharge.root_data import line_decompose

    vertices = list(g.vertices)
    expected = 0
    for a in range(len(vertices)):
        for b in range(a + 1, len(vertices)):
            try:
                line_decompose(vertices[a], vertices[b])
            except ValueError:
                continue
            expected += 1
    assert len(g.edges) == expected


# -- stage reflections -------------------------------------------------------------------


def test_stage_reflection_order():
    assert stage_reflection(1, 2) == AffineCoroot(1, (1, 2), -1)
    assert stage_reflection(2, 2) == AffineCoroot(1, (2, 2), -1)
    assert stage_reflection(3, 2) == AffineCoroot(2, (1, 2), -1)
    assert stage_reflection(1, 1) == AffineCoroot(1, (1, 1), -1)
    assert stage_reflection(5, 3) == AffineCoroot(2, (2, 3), -1)


def test_reversal_index_inverts_stage_reflection():
    for rank in (1, 2, 3):
        for m1 in range(1, 12):
            coroot = stage_reflection(m1, rank)
            assert coroot.reversal_index(rank) == m1


def test_affine_coroot_positivity():
    with pytest.raises(ValueError):
        AffineCoroot(0, (1, 1), -1)
    with pytest.raises(ValueError):
        AffineCoroot(-1, (1, 1), 1)
    with pytest.raises(ValueError):
        AffineCoroot(1, (1, 1), 2)


def test_build_graph_rejects_bad_stage():
    with pytest.raises(ValueError):
        build_graph((2, 0), -1)
    with pytest.raises(ValueError):
        build_graph((2, 0), 1.5)
    with pytest.raises(ValueError):
        build_graph((2, 0), True)
    with pytest.raises(ValueError):
        build_graph((2, 0), False)


# -- affine reflections --------------------------------------------------------------------


def test_apply_affine_reflection_examples():
    assert apply_affine_reflection(AffineCoroot(1, (1, 1), -1), (1, 1)) == (0, 2)
    with pytest.raises(ValueError, match=r"invalid root \(1, 2\) for rank 1"):
        apply_affine_reflection(AffineCoroot(1, (1, 2), -1), (1, 1))
    # level zero with positive sign is the finite reflection
    s_beta = transposition(1, 2, 3)
    for mu in build_interval((2, 1, 0)):
        assert apply_affine_reflection(AffineCoroot(0, (1, 2), 1), mu) == (
            weyl_apply_weight(s_beta, mu)
        )


def test_apply_affine_reflection_is_involution():
    weights = build_interval((3, 1, 0))
    coroots = [
        AffineCoroot(0, (1, 2), 1),
        AffineCoroot(1, (1, 1), -1),
        AffineCoroot(2, (2, 2), -1),
        AffineCoroot(1, (1, 2), 1),
    ]
    for a in coroots:
        for mu in weights:
            assert apply_affine_reflection(a, apply_affine_reflection(a, mu)) == mu


def test_edge_labels_reflect_head_to_tail():
    for shape in sweep_shapes(2, 5):
        lam = shape + (0,) * (3 - len(shape))
        for stage in (0, 1, 3, STAGE_INFINITY):
            g = build_graph(lam, stage)
            for src, dst, label in g.edges:
                assert apply_affine_reflection(label, dst) == src


# -- in-degree identities --------------------------------------------------------------------


def test_arr_infinity_formula_examples():
    assert arr_infinity_formula((1, 1), (2, 0)) == 1
    assert arr_infinity_formula((0, 2), (2, 0)) == 0
    assert arr_infinity_formula((2, 0), (2, 0)) == 2


@pytest.mark.parametrize("rank, max_weight", [(1, 6), (2, 6), (3, 4)])
def test_stage0_indegree_is_length(rank, max_weight):
    for shape in sweep_shapes(rank, max_weight):
        lam = shape + (0,) * (rank + 1 - len(shape))
        g = build_graph(lam, 0)
        for mu in g.vertices:
            assert g.arr(mu) == length(mu), (lam, mu)


@pytest.mark.parametrize("rank, max_weight", [(1, 6), (2, 6), (3, 4)])
def test_arr_infinity_matches_graph(rank, max_weight):
    for shape in sweep_shapes(rank, max_weight):
        lam = shape + (0,) * (rank + 1 - len(shape))
        g = build_graph(lam, STAGE_INFINITY)
        for mu in g.vertices:
            assert g.arr(mu) == arr_infinity_formula(mu, lam), (lam, mu)


@pytest.mark.parametrize("rank, max_weight", [(1, 6), (2, 5)])
def test_update_rule(rank, max_weight):
    for shape in sweep_shapes(rank, max_weight):
        lam = shape + (0,) * (rank + 1 - len(shape))
        top = stabilization_stage(lam)
        previous = build_graph(lam, 0)
        for m in range(top):
            nxt = build_graph(lam, m + 1)
            t = stage_reflection(m + 1, rank)
            for mu in previous.vertices:
                tmu = apply_affine_reflection(t, mu)
                if tmu == mu:
                    expected = 0
                elif line_compare(mu, tmu) is LineOrder.LOWER:
                    expected = -1
                elif tmu in previous.indegree:
                    expected = 1
                else:
                    expected = 0
                assert nxt.arr(mu) - previous.arr(mu) == expected, (lam, m, mu)
            previous = nxt


@pytest.mark.parametrize("rank, max_weight", [(1, 8), (2, 6)])
def test_indegree_difference_across_walls(rank, max_weight):
    checked = 0
    for shape in sweep_shapes(rank, max_weight):
        lam = shape + (0,) * (rank + 1 - len(shape))
        for m in range(stabilization_stage(lam)):
            g = build_graph(lam, m)
            t = stage_reflection(m + 1, rank)
            for mu in g.vertices:
                tmu = apply_affine_reflection(t, mu)
                if tmu == mu or tmu not in g.indegree:
                    continue
                if line_compare(mu, tmu) is LineOrder.GREATER:
                    checked += 1
                    assert g.arr(mu) == g.arr(tmu) - 1, (lam, m, mu)
    assert checked > 50  # the sweep must not be vacuous


def test_interval_graph_views():
    interval = interval_graph((2, 1, 0))
    assert interval.vertices == build_interval((2, 1, 0))
    assert interval.stabilization_stage == stabilization_stage((2, 1, 0))
    for stage in (0, 1, 2, STAGE_INFINITY):
        view = interval.at(stage)
        assert view.stage == stage
        assert view == build_graph((2, 1, 0), stage)
    # an edge that is never reversed stays put at stage infinity
    fixed = [(src, dst) for src, dst, _, index in interval.edges if index is None]
    assert fixed
    assert set(fixed) <= {(src, dst) for src, dst, _ in interval.at(STAGE_INFINITY).edges}


def assert_same_graph(restricted, direct):
    """Equal vertices, edges in order, stabilization stage, and every stage view."""
    assert restricted == direct
    assert restricted.edges == direct.edges
    for stage in [*range(direct.stabilization_stage + 1), STAGE_INFINITY]:
        view, expected = restricted.at(stage), direct.at(stage)
        assert view == expected
        assert view.edges == expected.edges
        counted = dict.fromkeys(view.vertices, 0)
        for _, dst, _ in view.edges:
            counted[dst] += 1
        assert view.indegree == counted


@pytest.mark.parametrize("rank, max_weight", [(1, 8), (2, 8), (3, 8), (4, 6)])
def test_restriction_equals_direct_build(rank, max_weight):
    """Over the acceptance sweep, I(lam) restricted to each dominant h <= lam is I(h)."""
    for size in range(max_weight + 1):
        direct = {}
        for shape in partitions(size, rank + 1):
            h = shape + (0,) * (rank + 1 - len(shape))
            direct[h] = interval_graph(h)
        for lam, graph in direct.items():
            for h in dominant_interval(lam):
                assert_same_graph(graph.restrict(h), direct[h])


def test_restriction_rejects_weights_not_below():
    graph = interval_graph((2, 1, 0))
    for h in [(3, 0, 0), (1, 2, 0), (2, 1, 0, 0), (1, 1, 0)]:
        with pytest.raises(ValueError):
            graph.restrict(h)


def counting_interval_graph(monkeypatch, *modules):
    """Route every interval_graph call through a counter of (rank, size) pairs."""
    calls = []
    direct = affine_graph.interval_graph

    def counted(lambda_prime):
        calls.append((len(lambda_prime) - 1, sum(lambda_prime)))
        return direct(lambda_prime)

    for module in (affine_graph, *modules):
        monkeypatch.setattr(module, "interval_graph", counted)
    return calls


@pytest.mark.parametrize("suite", ["arrows", "gammam", "swapping"])
def test_verify_suite_builds_one_graph_per_size(monkeypatch, suite):
    calls = counting_interval_graph(monkeypatch, verify)
    report = run_verify(suite, 3, 5)
    assert not report.failures
    assert len(calls) == len(set(calls)) <= 6


def test_recharge_table_builds_one_graph(monkeypatch):
    from crystalcharge.atoms import decompose
    from crystalcharge.crystal import Crystal

    c = Crystal.generate((4, 2, 1, 0), 3)
    dec = decompose(c)
    calls = counting_interval_graph(monkeypatch, charge_kostka)
    charge_kostka.recharge_table(c, dec, 2)
    assert calls == [(3, 7)]


def test_stabilization():
    for shape in [(2, 0), (3, 1), (2, 1, 0), (2, 2, 0), (3, 1, 0)]:
        rank = len(shape) - 1
        lam = shape
        top = stabilization_stage(lam)
        assert graph_edge_set(build_graph(lam, top)) == graph_edge_set(
            build_graph(lam, STAGE_INFINITY)
        )
        if top > 0:
            assert graph_edge_set(build_graph(lam, top - 1)) != graph_edge_set(
                build_graph(lam, STAGE_INFINITY)
            )


def test_partitions_helper():
    assert list(partitions(4, 2)) == [(4,), (3, 1), (2, 2)]
    assert list(partitions(0, 3)) == [()]
