"""Tests for the tableau crystal and its operators."""

from itertools import product

import pytest

from crystalcharge.crystal import (
    Crystal,
    CrystalSizeError,
    CrystalStructureError,
    conjugating_permutation,
    is_semistandard,
    normalize_shape,
    semistandard_tableaux,
    weyl_dimension,
)
from crystalcharge.root_data import (
    pairing,
    perm_compose,
    perm_identity,
    positive_roots,
    root_vector,
    simple_reflection,
    transposition,
    weyl_apply_weight,
)


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


def test_op_rejects_unknown_direction(c20):
    with pytest.raises(ValueError):
        c20.tilde_op("g", (1, 1), 0)
    with pytest.raises(ValueError):
        c20.root_op_power("g", (1, 1), 0, 1)


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
        stats = c210.root_string_stats((i, i), c210.highest)
        assert stats.eps == 0
        assert stats.phi == pairing(c210.shape, (i, i))
    assert c20.root_string_stats((1, 1), c20.elements.index(((1, 2),))) == (1, 1)
    assert c210.root_string_stats((1, 1), c210.elements.index(((1, 2), (2,)))) == (1, 0)


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
        v = perm_identity(size)
        w = perm_identity(size)
        for _ in range(3):
            v = perm_compose(v, simple_reflection(rng.randrange(1, size), size))
            w = perm_compose(w, simple_reflection(rng.randrange(1, size), size))
        for x in range(0, c2100.size, 5):
            assert c2100.weyl_act(perm_compose(v, w), x) == c2100.weyl_act(
                v, c2100.weyl_act(w, x)
            )


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
        assert c210.weights[c210.weyl_act(w, x)] == weyl_apply_weight(
            w, c210.weights[x]
        )


# -- modified root operators -------------------------------------------------------------


def test_root_op_is_conjugated(c210):
    # f_{a_{1,2}} = s_1 f_2 s_1
    for x in range(c210.size):
        expected = c210.si(1, x)
        expected = c210.f(2, expected)
        expected = None if expected is None else c210.si(1, expected)
        assert c210.root_op("f", (1, 2), x) == expected


def test_root_op_simple_coincides(c210):
    for i in (1, 2):
        for x in range(c210.size):
            assert c210.root_op("f", (i, i), x) == c210.f(i, x)
            assert c210.root_op("e", (i, i), x) == c210.e(i, x)


def test_root_op_weight_shift(c210):
    for beta in positive_roots(2):
        vec = root_vector(beta, 2)
        for x in range(c210.size):
            y = c210.root_op("f", beta, x)
            if y is not None:
                assert c210.weights[y] == tuple(
                    a - b for a, b in zip(c210.weights[x], vec)
                )


def test_root_op_on_highest(c210):
    y = c210.root_op("f", (1, 2), c210.highest)
    assert y is not None
    assert c210.weights[y] == (1, 1, 1)


def test_root_string_stats(c210):
    for beta in positive_roots(2):
        assert c210.root_string_stats(beta, c210.highest).eps == 0
        for x in range(c210.size):
            stats = c210.root_string_stats(beta, x)
            assert stats.phi - stats.eps == pairing(c210.weights[x], beta)


def test_root_string_stats_count_actual_powers(c210):
    for beta in positive_roots(2):
        for x in range(c210.size):
            stats = c210.root_string_stats(beta, x)
            assert c210.root_op_power("e", beta, x, stats.eps) is not None
            assert c210.root_op_power("e", beta, x, stats.eps + 1) is None
            assert c210.root_op_power("f", beta, x, stats.phi) is not None
            assert c210.root_op_power("f", beta, x, stats.phi + 1) is None


def test_reflection_stays_on_string(c210):
    for beta in positive_roots(2):
        j, k = beta
        s_beta = transposition(j, k, 3)
        for x in range(c210.size):
            string = {x}
            y = x
            while (y := c210.root_op("f", beta, y)) is not None:
                string.add(y)
            y = x
            while (y := c210.root_op("e", beta, y)) is not None:
                string.add(y)
            assert c210.weyl_act(s_beta, x) in string


def test_string_sum_lemma(c210, c2100):
    for crystal in (c210, c2100):
        for i in range(1, crystal.rank):
            beta = (i, i + 1)
            for x in range(crystal.size):
                y = crystal.root_op("f", beta, x)
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
            for x in range(crystal.size):
                for direction in ("f", "e"):
                    assert crystal.tilde_op(direction, beta, x) == crystal.root_op(
                        direction, beta, x
                    )


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
                assert c2100.tilde_op("f", beta, x, u=u) == c2100.tilde_op(
                    "f", beta, x
                )


def test_tilde_commutation_on_dominant(c210):
    from crystalcharge.root_data import is_dominant

    for x in range(c210.size):
        mu = c210.weights[x]
        if not is_dominant(mu):
            continue
        if pairing(mu, (1, 1)) > 0 and pairing(mu, (2, 2)) > 0:
            ab = c210.tilde_op("f", (2, 2), c210.tilde_op("f", (1, 1), x))
            ba = c210.tilde_op("f", (1, 1), c210.tilde_op("f", (2, 2), x))
            direct = c210.tilde_op("f", (1, 2), x)
            assert direct is not None
            assert ab == ba == direct


# -- serialization --------------------------------------------------------------------------


def test_enumeration_is_deterministic():
    first = list(semistandard_tableaux((2, 1), 3))
    second = list(semistandard_tableaux((2, 1), 3))
    assert first == second
    assert first[0] == ((1, 1), (2,))
