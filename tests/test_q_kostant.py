"""A Kostka oracle that lists no tableau and builds no crystal: Lusztig's q-analogue of Kostant's formula.

    K_{lam,mu}(q) = sum over w in S_(n+1) of sgn(w) P_q(w(lam + rho) - (mu + rho)),

with rho = (n, n-1, ..., 0) and P_q(gamma) the sum of q^(number of
roots) over the ways to write gamma as an N-combination of the positive
roots e_i - e_j, i < j (Lusztig, Asterisque 101-102 (1983); Kato,
Invent. Math. 66 (1982)).  P_q recurses on the first coordinate: gamma_1
splits among the roots e_1 - e_j, which raise the later coordinates, and
the rest is P_q of those coordinates.  A gamma with a negative first
coordinate has no such sum, so a permutation whose gamma has a negative
prefix sum adds nothing.

The "new" route scores the tableaux of content mu; so does "ls", and
"llt" averages over B(lam), so a fault in the tableau enumeration
reaches every route alike.  This oracle shares nothing with them: the
weights below are listed here too, and the package is imported only to
compare.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations

from crystalcharge import charge_kostka
from crystalcharge.charge_kostka import HalfLaurentPolynomial, kostka

# the acceptance sweep: ranks 1-3 with |lam| <= 8, rank 4 with |lam| <= 6
SWEEP = ((1, 8), (2, 8), (3, 8), (4, 6))


def compositions(total, parts):
    """Every tuple of `parts` nonnegative integers summing to total (stars and bars)."""
    for bars in combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


@lru_cache(maxsize=None)
def partition_function(gamma):
    """P_q(gamma) as sorted (exponent, count) pairs."""
    first, rest = gamma[0], gamma[1:]
    if first < 0:
        return ()
    if not rest:
        return ((0, 1),) if first == 0 else ()
    total = Counter()
    for split in compositions(first, len(rest)):
        for exponent, count in partition_function(tuple(map(sum, zip(rest, split)))):
            total[exponent + first] += count
    return tuple(sorted(total.items()))


def q_kostant(lam, mu):
    """K_{lam,mu}(q) by Kostant's alternating sum, as doubled exponents, one per power of q."""
    n = len(lam) - 1
    shifted = [a + n - i for i, a in enumerate(lam)]
    target = [b + n - i for i, b in enumerate(mu)]
    total = Counter()
    for w in permutations(range(n + 1)):
        sign = (-1) ** sum(w[a] > w[b] for a, b in combinations(range(n + 1), 2))
        for exponent, count in partition_function(tuple(shifted[w[i]] - target[i] for i in range(n + 1))):
            total[2 * exponent] += sign * count
    return HalfLaurentPolynomial(dict(total))


def dominant_pairs():
    """Every (lam, mu) of the sweep with lam nonempty, mu dominant and mu <= lam, as weights of length n+1."""
    pairs = []
    for rank, max_weight in SWEEP:
        for size in range(1, max_weight + 1):
            weights = [w for w in combinations_with_replacement(range(size, -1, -1), rank + 1) if sum(w) == size]
            for lam in weights:
                for mu in weights:
                    if all(sum(mu[:i]) <= sum(lam[:i]) for i in range(1, rank + 1)):
                        pairs.append((lam, mu))
    return pairs


PAIRS = dominant_pairs()


def test_q_kostant_matches_new_route_on_the_acceptance_sweep():
    assert len(PAIRS) == 573
    for lam, mu in PAIRS:
        assert kostka(lam, mu, "new") == q_kostant(lam, mu), (lam, mu)


def test_q_kostant_catches_a_dropped_tableau(monkeypatch):
    listed = charge_kostka.tableaux_of_content
    monkeypatch.setattr(charge_kostka, "tableaux_of_content", lambda shape, mu: listed(shape, mu)[:-1])
    wrong = [(lam, mu) for lam, mu in PAIRS if kostka(lam, mu, "new") != q_kostant(lam, mu)]
    assert wrong == PAIRS

