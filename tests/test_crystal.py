"""Tests for the tableau crystal and its operators."""

import copy
import pickle
from itertools import product

import pytest
from test_kernel_references import (
    conjugating_permutation,
    crystal_reference,
    is_semistandard,
    perm_compose,
    phi_rows,
    root_op_reference,
    root_string_stats_reference,
    root_vector,
    simple_reflection,
    tilde_op_reference,
    weyl_act,
    weyl_apply_weight,
)

from crystalcharge import cli
from crystalcharge import crystal as crystal_module
from crystalcharge.atoms import decompose
from crystalcharge.charge_kostka import kostka, llt_gamma
from crystalcharge.crystal import (
    Crystal,
    CrystalSizeError,
    CrystalStructureError,
    normalize_shape,
    semistandard_tableaux,
    weyl_dimension,
)
from crystalcharge.root_data import pairing, positive_roots, reduced_word
from crystalcharge.verify import run_verify


def brute_force_tableaux(parts, max_entry):
    """Independent oracle: filter every filling of the shape."""
    parts = tuple(p for p in parts if p > 0)
    cells = [(r, c) for r in range(len(parts)) for c in range(parts[r])]
    found = []
    for filling in product(range(1, max_entry + 1), repeat=len(cells)):
        rows = [[0] * p for p in parts]
        for (r, c), v in zip(cells, filling):
            rows[r][c] = v
        rows = tuple(tuple(row) for row in rows)
        if is_semistandard(rows, max_entry):
            found.append(rows)
    return found


@pytest.fixture(scope="module")
def c20():
    return Crystal.generate((2, 0), 1)


@pytest.fixture(scope="module")
def c210():
    return Crystal.generate((2, 1, 0), 2)


@pytest.fixture(scope="module")
def c2100():
    return Crystal.generate((2, 1, 0, 0), 3)


# -- generation -----------------------------------------------------------------


def test_generate_sizes(c20, c210):
    assert c20.size == 3
    assert Crystal.generate((1, 1, 0), 2).size == 3
    assert c210.size == 8


@pytest.mark.parametrize(
    "shape, rank",
    [((2, 0), 1), ((2, 1, 0), 2), ((3, 1), 2), ((2, 2), 3), ((1, 1, 1), 2)],
)
def test_generate_matches_brute_force(shape, rank):
    lam = normalize_shape(shape, rank)
    generated = set(Crystal.generate(lam, rank).elements)
    expected = set(brute_force_tableaux(lam, rank + 1))
    assert generated == expected
    assert weyl_dimension(lam, rank) == len(expected)


def test_weyl_dimension_at_large_rank():
    """The zero rows form one block, so a large rank costs one binomial per nonzero row."""
    assert weyl_dimension((2, 1), 5000) == 41_691_670_000
    assert weyl_dimension((1,), 1000) == 1001


def test_generate_long_row():
    """A row of 1,200 cells enumerates without one stack frame per cell."""
    assert Crystal.generate((1200,), 1).size == 1201


def test_generate_tall_column():
    """A column of 60 cells: every cell is capped by the room its column needs below."""
    assert Crystal.generate((1,) * 60, 60).size == 61


def test_generate_two_long_rows():
    """Shape (20000, 19999) at rank 1: two tableaux, 39,999 cells, no dead end per column."""
    assert Crystal.generate((20000, 19999), 1).size == 2


def test_broken_element_set_raises():
    elements = Crystal.generate((2, 1, 0), 2).elements
    with pytest.raises(CrystalStructureError, match=r"^f_1 of \(\(1, 3\), \(3,\)\) is not an element$"):
        Crystal(2, (2, 1, 0), elements[:-1])
    with pytest.raises(CrystalStructureError, match=r"^e_2 of \(\(1, 1\), \(3,\)\) is not an element$"):
        Crystal(2, (2, 1, 0), elements[1:])
    with pytest.raises(CrystalStructureError, match=r"^1 repeated tableaux$"):
        Crystal(2, (2, 1, 0), elements + elements[-1:])


def test_generate_cap():
    with pytest.raises(CrystalSizeError, match="5"):
        Crystal.generate((2, 1, 0), 2, max_elements=5)


def test_generate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Crystal.generate((1, 2), 2)
    with pytest.raises(ValueError):
        Crystal.generate((1, 1, 1), 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_verify("all", 0, 2),
        lambda: run_verify("oracles", 0, 2),
        lambda: decompose(Crystal.generate((2,), 0)),
        lambda: kostka((2,), (2,)),
    ],
    ids=["verify-all", "verify-oracles", "decompose", "kostka"],
)
def test_rank_zero_is_rejected(call):
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        call()


def test_op_rejects_unknown_direction(c20):
    with pytest.raises(ValueError):
        c20.conjugate("g", 1, ())


def test_empty_shape():
    c = Crystal.generate((), 2)
    assert c.size == 1
    assert c.weights[0] == (0, 0, 0)
    assert all(c.f(i, 0) is None and c.e(i, 0) is None for i in (1, 2))


def test_weights_are_contents(c210):
    for x, rows in enumerate(c210.elements):
        counts = [0, 0, 0]
        for row in rows:
            for v in row:
                counts[v - 1] += 1
        assert c210.weights[x] == tuple(counts)


def test_character_matches_content_counts(c210):
    from collections import Counter

    crystal_weights = Counter(c210.weights)
    oracle_weights = Counter()
    for rows in brute_force_tableaux((2, 1), 3):
        counts = [0, 0, 0]
        for row in rows:
            for v in row:
                counts[v - 1] += 1
        oracle_weights[tuple(counts)] += 1
    assert crystal_weights == oracle_weights


# -- simple operators ---------------------------------------------------------------


def test_crystal_op_examples(c20, c210):
    # the unique three-element string of B((2,0))
    x = c20.elements.index(((1, 2),))
    assert c20.elements[c20.f(1, x)] == ((2, 2),)
    assert c20.e(1, c20.highest) is None
    # signature rule on reading word 2 1 1
    x = c210.elements.index(((1, 1), (2,)))
    assert c210.elements[c210.f(1, x)] == ((1, 2), (2,))


def test_string_stats_examples(c20, c210):
    for i in (1, 2):
        stats = root_string_stats_reference(c210, (i, i), c210.highest)
        assert stats.eps == 0
        assert stats.phi == pairing(c210.shape, (i, i))
    assert root_string_stats_reference(c20, (1, 1), c20.elements.index(((1, 2),))) == (1, 1)
    assert root_string_stats_reference(c210, (1, 1), c210.elements.index(((1, 2), (2,)))) == (1, 0)


def test_bijectivity(c210):
    for i in (1, 2):
        for x in range(c210.size):
            y = c210.f(i, x)
            if y is not None:
                assert c210.e(i, y) == x
            z = c210.e(i, x)
            if z is not None:
                assert c210.f(i, z) == x


def test_unique_highest(c210):
    killed = [
        x for x in range(c210.size) if all(c210.e(i, x) is None for i in (1, 2))
    ]
    assert killed == [c210.highest]
    assert c210.weights[c210.highest] == (2, 1, 0)


def test_operator_weight_shift(c210):
    for i in (1, 2):
        alpha = root_vector((i, i), 2)
        for x in range(c210.size):
            y = c210.f(i, x)
            if y is not None:
                assert c210.weights[y] == tuple(
                    a - b for a, b in zip(c210.weights[x], alpha)
                )


def test_bfs_from_highest_reaches_everything(c210):
    seen = {c210.highest}
    frontier = [c210.highest]
    while frontier:
        x = frontier.pop()
        for i in (1, 2):
            y = c210.f(i, x)
            if y is not None and y not in seen:
                seen.add(y)
                frontier.append(y)
    assert seen == set(range(c210.size))


# -- Weyl action ----------------------------------------------------------------------


def test_weyl_act_examples(c20, c210):
    # zero pairing fixes the element
    for x in range(c210.size):
        for i in (1, 2):
            if pairing(c210.weights[x], (i, i)) == 0:
                assert c210.si(i, x) == x
    # string reversal in sl2
    assert c20.elements[c20.si(1, c20.elements.index(((1, 1),)))] == ((2, 2),)


def test_braid_relation(c210):
    for x in range(c210.size):
        left = c210.si(1, c210.si(2, c210.si(1, x)))
        right = c210.si(2, c210.si(1, c210.si(2, x)))
        assert left == right


def test_weyl_act_is_group_action(c2100):
    import random

    rng = random.Random(7)
    size = c2100.rank + 1
    for _ in range(15):
        v = w = tuple(range(size))
        for _ in range(3):
            v = perm_compose(v, simple_reflection(rng.randrange(1, size), size))
            w = perm_compose(w, simple_reflection(rng.randrange(1, size), size))
        for x in range(0, c2100.size, 5):
            assert weyl_act(c2100, perm_compose(v, w), x) == weyl_act(c2100, v, weyl_act(c2100, w, x))


@pytest.mark.parametrize("shape, rank", [((2, 1, 0), 2), ((2, 1, 0, 0), 3), ((2, 2, 1, 0), 3)])
def test_coxeter_relations_exhaustive(shape, rank):
    crystal = Crystal.generate(shape, rank)
    assert crystal.size <= 500
    for x in range(crystal.size):
        for i in range(1, rank + 1):
            assert crystal.si(i, crystal.si(i, x)) == x
            for j in range(i + 1, rank + 1):
                if j - i >= 2:
                    assert crystal.si(i, crystal.si(j, x)) == crystal.si(
                        j, crystal.si(i, x)
                    )
                else:
                    assert crystal.si(i, crystal.si(j, crystal.si(i, x))) == crystal.si(
                        j, crystal.si(i, crystal.si(j, x))
                    )


def test_weyl_act_weight_compatibility(c210):
    w = (2, 0, 1)
    for x in range(c210.size):
        assert c210.weights[weyl_act(c210, w, x)] == weyl_apply_weight(w, c210.weights[x])


# -- modified root operators -------------------------------------------------------------


def test_root_op_is_conjugated(c210):
    # f_{a_{1,2}} = s_1 f_2 s_1
    for x in range(c210.size):
        expected = c210.si(1, x)
        expected = c210.f(2, expected)
        expected = None if expected is None else c210.si(1, expected)
        assert root_op_reference(c210, "f", (1, 2), x) == expected


def test_root_op_simple_coincides(c210):
    for i in (1, 2):
        for x in range(c210.size):
            assert root_op_reference(c210, "f", (i, i), x) == c210.f(i, x)
            assert root_op_reference(c210, "e", (i, i), x) == c210.e(i, x)


def test_root_op_weight_shift(c210):
    for beta in positive_roots(2):
        vec = root_vector(beta, 2)
        for x in range(c210.size):
            y = root_op_reference(c210, "f", beta, x)
            if y is not None:
                assert c210.weights[y] == tuple(
                    a - b for a, b in zip(c210.weights[x], vec)
                )


def test_root_op_on_highest(c210):
    y = root_op_reference(c210, "f", (1, 2), c210.highest)
    assert y is not None
    assert c210.weights[y] == (1, 1, 1)


def test_root_string_stats(c210):
    for beta in positive_roots(2):
        assert root_string_stats_reference(c210, beta, c210.highest).eps == 0
        for x in range(c210.size):
            stats = root_string_stats_reference(c210, beta, x)
            assert stats.phi - stats.eps == pairing(c210.weights[x], beta)


def test_root_string_stats_count_actual_powers(c210):
    """Powers of a conjugated row, (w e_k w^{-1})^m = w e_k^m w^{-1}, last exactly as long as the string."""
    for j, k in positive_roots(2):
        rows = {direction: c210.conjugate(direction, k, tuple(range(j, k))) for direction in ("e", "f")}
        for x in range(c210.size):
            stats = root_string_stats_reference(c210, (j, k), x)
            for direction, length in (("e", stats.eps), ("f", stats.phi)):
                y = x
                for _ in range(length):
                    y = rows[direction][y]
                    assert y is not None
                assert rows[direction][y] is None


def test_reflection_stays_on_string(c210):
    for beta in positive_roots(2):
        j, k = beta
        s_beta = tuple({j - 1: k, k: j - 1}.get(t, t) for t in range(3))
        for x in range(c210.size):
            string = {x}
            y = x
            while (y := root_op_reference(c210, "f", beta, y)) is not None:
                string.add(y)
            y = x
            while (y := root_op_reference(c210, "e", beta, y)) is not None:
                string.add(y)
            assert weyl_act(c210, s_beta, x) in string


def test_string_sum_lemma(c210, c2100):
    for crystal in (c210, c2100):
        for i in range(1, crystal.rank):
            beta = (i, i + 1)
            for x in range(crystal.size):
                y = root_op_reference(crystal, "f", beta, x)
                if y is not None:
                    assert crystal.eps(i, x) + crystal.phi(i + 1, x) == crystal.eps(
                        i, y
                    ) + crystal.phi(i + 1, y)


# -- conjugates of the last operator -----------------------------------------------------


def test_tilde_equals_root_op_on_last_column(c210, c2100):
    for crystal in (c210, c2100):
        n = crystal.rank
        for j in range(1, n + 1):
            beta = (j, n)
            word = reduced_word(conjugating_permutation(n, beta))
            assert crystal.tilde_rows[beta] == crystal.conjugate("f", n, word)
            for direction in ("f", "e"):
                row = crystal.conjugate(direction, n, word)
                assert row == [root_op_reference(crystal, direction, beta, x) for x in range(crystal.size)]


def test_tilde_choice_independence(c2100):
    from itertools import permutations

    n = c2100.rank
    for beta in positive_roots(n):
        j, k = beta
        reference = conjugating_permutation(n, beta)
        rest_targets = [t for t in range(n + 1) if t != j - 1 and t != k]
        conjugators = [
            tuple(list(assignment) + [j - 1, k])
            for assignment in permutations(rest_targets)
        ]
        assert reference in conjugators
        assert len(conjugators) >= 2
        for u in conjugators:
            for x in range(c2100.size):
                assert tilde_op_reference(c2100, "f", beta, x, u) == c2100.tilde_rows[beta][x]


def test_tilde_commutation_on_dominant(c210):
    from crystalcharge.root_data import is_dominant

    tilde = c210.tilde_rows
    for x in range(c210.size):
        mu = c210.weights[x]
        if not is_dominant(mu):
            continue
        if pairing(mu, (1, 1)) > 0 and pairing(mu, (2, 2)) > 0:
            ab = tilde[2, 2][tilde[1, 1][x]]
            ba = tilde[1, 1][tilde[2, 2][x]]
            direct = tilde[1, 2][x]
            assert direct is not None
            assert ab == ba == direct


# -- serialization --------------------------------------------------------------------------


def test_enumeration_is_deterministic():
    first = list(semistandard_tableaux((2, 1), 3))
    second = list(semistandard_tableaux((2, 1), 3))
    assert first == second
    assert first[0] == ((1, 1), (2,))


# -- operator tables at construction ----------------------------------------------


@pytest.fixture
def table_builds(monkeypatch):
    """The number of calls to crystal._operator_tables, counted while the test runs."""
    calls = []
    build = crystal_module._operator_tables

    def counted(elements, rank):
        calls.append(rank)
        return build(elements, rank)

    monkeypatch.setattr(crystal_module, "_operator_tables", counted)
    return calls


TABLE_SHAPE, TABLE_RANK, TABLE_MU = (3, 2, 1, 0), 3, (2, 2, 1, 1)


def test_weight_queries_build_no_tables(table_builds, monkeypatch):
    """kostka by new, ls and count reads the tableaux of content mu and builds no crystal."""
    generated = []
    generate = Crystal.generate.__func__
    monkeypatch.setattr(
        Crystal, "generate", classmethod(lambda cls, *args: generated.append(args) or generate(cls, *args))
    )
    ls = kostka(TABLE_SHAPE, TABLE_MU, "ls")
    count = kostka(TABLE_SHAPE, TABLE_MU, "count")
    new = kostka(TABLE_SHAPE, TABLE_MU, "new")
    assert (generated, table_builds) == ([], [])
    multiplicity = len(Crystal.generate(TABLE_SHAPE, TABLE_RANK).elements_of_weight(TABLE_MU))
    assert count.doubled_items() == ((0, multiplicity),)
    assert sum(coeff for _, coeff in ls.doubled_items()) == multiplicity > 1
    assert new == ls == kostka(TABLE_SHAPE, TABLE_MU, "llt")
    assert (len(generated), table_builds) == (2, [TABLE_RANK] * 2)


@pytest.mark.parametrize(
    "query",
    [
        lambda c: [llt_gamma(c)[x] for x in c.elements_of_weight(TABLE_MU)],
        decompose,
        Crystal.to_json_dict,
    ],
    ids=["llt", "decompose", "to_json_dict"],
)
def test_table_queries_build_once(table_builds, query):
    c = Crystal.generate(TABLE_SHAPE, TABLE_RANK)
    assert table_builds == [TABLE_RANK]
    query(c)
    query(c)
    for i in range(1, TABLE_RANK + 1):
        for x in range(c.size):
            c.f(i, x), c.e(i, x), c.eps(i, x), c.phi(i, x), c.si(i, x)
    assert c.tilde_rows[1, TABLE_RANK][c.highest] is not None
    assert table_builds == [TABLE_RANK]


@pytest.mark.parametrize(
    "first_read",
    [lambda c: c.si(1, 0), lambda c: c.eps(2, 0), lambda c: c.tilde_rows[1, 2][c.size - 1]],
    ids=["si", "eps", "tilde_op"],
)
@pytest.mark.parametrize("shape, rank", [((2, 1, 0), 2), ((3, 2, 1, 0), 3), ((2, 2, 1, 0, 0), 4)])
def test_tables_built_on_first_read_match_reference(first_read, shape, rank):
    c = Crystal.generate(shape, rank)
    first_read(c)
    got = (c._f, c._e, c._eps, phi_rows(c), c._si, c.weights, c.highest)
    assert got == crystal_reference(c.elements, rank)


def test_crystal_text_builds_no_tables(table_builds, capsys):
    """The text form prints tableaux and weights, read from the tableaux; JSON prints the tables."""
    assert cli.main("crystal --rank 3 --weight 3,2,1,0".split()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert table_builds == []
    c = Crystal.generate(TABLE_SHAPE, TABLE_RANK)
    assert lines[0] == f"# crystal rank=3 shape=3,2,1,0 elements={c.size}"
    assert lines[-1].split("\t")[0] == str(c.size - 1)
    assert table_builds == [TABLE_RANK]
    assert cli.main("crystal --rank 3 --weight 3,2,1,0 --format json".split()) == 0
    assert table_builds == [TABLE_RANK] * 2


def test_crystal_text_checks_the_tableau_count(monkeypatch, capsys):
    monkeypatch.setattr(crystal_module, "semistandard_tableaux", lambda parts, max_entry: iter([((1, 1),)]))
    assert cli.main("crystal --rank 1 --weight 2,0".split()) == 2
    assert capsys.readouterr() == ("", "error: 1 tableaux of shape (2, 0), expected 3\n")


def test_copies_keep_their_tables(table_builds):
    c = Crystal.generate((2, 1, 0), 2)
    for other in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert (other.elements, other.weights, other.highest) == (c.elements, c.weights, c.highest)
        assert (other._f, other._e, other._eps, other._si) == (c._f, c._e, c._eps, c._si)
        assert phi_rows(other) == phi_rows(c)
    assert table_builds == [2]
