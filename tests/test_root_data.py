"""Tests for type-A root and weight combinatorics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel_references import line_compare, perm_compose, root_vector, simple_reflection, weyl_apply_weight

from crystalcharge.root_data import (
    LineOrder,
    bruhat_leq_dominant,
    length,
    length_along,
    pairing,
    partitions,
    positive_roots,
    reduced_word,
    rho_doubled,
)

# -- small strategies ---------------------------------------------------------

ranks = st.integers(min_value=1, max_value=3)


def weights(rank):
    return st.tuples(*[st.integers(min_value=-4, max_value=4)] * (rank + 1))


rank_and_weight = ranks.flatmap(lambda n: st.tuples(st.just(n), weights(n)))


# -- pairings -----------------------------------------------------------------


def test_pairing_examples():
    assert pairing((2, 1, 0), (1, 2)) == 2
    assert all(pairing((1, 1, 1), beta) == 0 for beta in positive_roots(2))
    assert pairing((0, 1, 2), (1, 1)) == -1


def test_rho_doubled_examples():
    assert rho_doubled((2, 1, 0)) == 4
    assert rho_doubled((1, 1, 1)) == 0
    assert rho_doubled((1, 0)) == 1
    assert rho_doubled((5,)) == 0


@given(rank_and_weight)
def test_rho_doubled_is_sum_of_pairings(case):
    n, mu = case
    assert rho_doubled(mu) == sum(pairing(mu, beta) for beta in positive_roots(n))


def test_rho_doubled_is_length_on_dominant_weights():
    """Every pairing of a dominant weight is >= 0, and a nonnegative pairing is the length along its root."""
    for n in range(1, 7):
        for size in range(10):
            for shape in partitions(size, n + 1):
                mu = shape + (0,) * (n + 1 - len(shape))
                assert rho_doubled(mu) == length(mu)
    assert (rho_doubled((0, 1)), length((0, 1))) == (-1, 0)


def test_root_vectors():
    assert root_vector((1, 2), 2) == (1, 0, -1)
    assert root_vector((2, 2), 2) == (0, 1, -1)
    with pytest.raises(ValueError):
        root_vector((2, 1), 2)
    with pytest.raises(ValueError):
        root_vector((1, 3), 2)


# -- reduced words ------------------------------------------------------------


def test_reduced_word_recovers_permutation():
    for perm in [(1, 0, 2), (2, 0, 1), (2, 1, 0), (0, 1, 2), (3, 1, 0, 2)]:
        word = reduced_word(perm)
        rebuilt = tuple(range(len(perm)))
        for i in word:
            rebuilt = perm_compose(rebuilt, simple_reflection(i, len(perm)))
        assert rebuilt == perm
        inversions = sum(
            1
            for a in range(len(perm))
            for b in range(a + 1, len(perm))
            if perm[a] > perm[b]
        )
        assert len(word) == inversions


# -- Bruhat dominance -----------------------------------------------------------


def test_bruhat_examples():
    assert bruhat_leq_dominant((1, 1, 1), (2, 1, 0))
    assert bruhat_leq_dominant((0, 1, 2), (2, 1, 0))
    assert not bruhat_leq_dominant((3, 0, 0), (2, 1, 0))


def test_bruhat_rejections():
    with pytest.raises(ValueError):
        bruhat_leq_dominant((1, 1, 1), (0, 1, 2))  # lambda not dominant
    with pytest.raises(ValueError):
        bruhat_leq_dominant((1, 1, 1), (2, 2, 0))  # sums differ


@given(rank_and_weight, st.randoms())
def test_interval_is_weyl_invariant(case, rng):
    n, mu = case
    lam = tuple(sorted(mu, reverse=True))
    assert bruhat_leq_dominant(mu, lam)
    w = tuple(range(n + 1))
    for _ in range(3):
        w = perm_compose(w, simple_reflection(rng.randrange(1, n + 1), n + 1))
    assert bruhat_leq_dominant(weyl_apply_weight(w, mu), lam)


# -- lengths -----------------------------------------------------------------------


def test_length_along_two_cases():
    assert length_along((3, 0), (1, 1)) == 3
    assert length_along((0, 3), (1, 1)) == 2
    assert length_along((1, 1), (1, 1)) == 0


def test_length_examples():
    assert length((2, 1, 0)) == 4
    assert length((1, 1, 1)) == 0
    assert length((0, 1, 2)) == 1


@given(rank_and_weight)
def test_length_nonnegative_and_zero_on_symmetric(case):
    n, mu = case
    assert length(mu) >= 0
    symmetric = (mu[0],) * (n + 1)
    assert length(symmetric) == 0


# -- line comparison -----------------------------------------------------------------


def test_line_compare_examples():
    # pairing 2, k=1: the lower weight is Bruhat-smaller
    assert line_compare((2, 0), (1, 1)) is LineOrder.LOWER
    # pairing 0, k=1: neither branch holds, so the order reverses
    assert line_compare((1, 1), (0, 2)) is LineOrder.GREATER
    # k=-1, pairing 0: second branch for the swapped pair
    assert line_compare((1, 1), (2, 0)) is LineOrder.GREATER
    assert line_compare((1, 1), (1, 1)) is LineOrder.EQUAL


def test_line_compare_rejects_off_line():
    with pytest.raises(ValueError):
        line_compare((2, 1, 0), (0, 2, 1))  # difference has three nonzero entries
    with pytest.raises(ValueError):
        line_compare((2, 1, 0), (1, 1, 0))  # difference is not on a root line
    # a multiple of a single root is accepted even at distance two
    assert line_compare((2, 1, 0), (0, 1, 2)) is LineOrder.LOWER


@given(rank_and_weight, st.integers(min_value=-3, max_value=3), st.randoms())
def test_line_compare_antisymmetric(case, k, rng):
    n, mu = case
    if k == 0:
        return
    beta = rng.choice(positive_roots(n))
    vec = root_vector(beta, n)
    nu = tuple(a - k * b for a, b in zip(mu, vec))
    first = line_compare(mu, nu)
    second = line_compare(nu, mu)
    assert (first is LineOrder.LOWER) == (second is LineOrder.GREATER)
    assert (first is LineOrder.GREATER) == (second is LineOrder.LOWER)


# -- exhaustive oracle: dominance test vs chains of reflection descents ---------------


def _box_weights(rank, total, top):
    def extend(prefix, remaining):
        slots = rank + 1 - len(prefix)
        if slots == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        for v in range(0, min(top, remaining) + 1):
            yield from extend(prefix + [v], remaining - v)

    yield from extend([], total)


def _descent_closure(lam, rank):
    """All weights reachable from lam by repeated single-line descents."""
    reached = {lam}
    frontier = [lam]
    while frontier:
        mu = frontier.pop()
        for beta in positive_roots(rank):
            vec = root_vector(beta, rank)
            for k in range(-sum(lam) - 1, sum(lam) + 2):
                if k == 0:
                    continue
                nu = tuple(a - k * b for a, b in zip(mu, vec))
                if line_compare(mu, nu) is LineOrder.LOWER and nu not in reached:
                    reached.add(nu)
                    frontier.append(nu)
    return reached


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_interval_equals_descent_closure(rank):
    """mu <= lam exactly when mu is reachable from lam by descent chains."""
    max_total = 8
    for total in range(max_total + 1):
        for shape in partitions(total, rank + 1):
            lam = shape + (0,) * (rank + 1 - len(shape))
            reachable = _descent_closure(lam, rank)
            for mu in _box_weights(rank, total, max(lam[0], 1)):
                assert bruhat_leq_dominant(mu, lam) == (mu in reachable), (mu, lam)


@settings(max_examples=30)
@given(rank_and_weight)
def test_descents_stay_in_interval(case):
    """Transitivity spot check: nu < mu <= lam forces nu <= lam."""
    n, mu = case
    lam = tuple(sorted(mu, reverse=True))
    assert bruhat_leq_dominant(mu, lam)
    for beta in positive_roots(n):
        vec = root_vector(beta, n)
        for k in (-2, -1, 1, 2):
            nu = tuple(a - k * b for a, b in zip(mu, vec))
            if line_compare(mu, nu) is LineOrder.LOWER:
                assert bruhat_leq_dominant(nu, lam)
