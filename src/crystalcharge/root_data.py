"""
Root and weight combinatorics for the type A_n root system of SL_{n+1}.

Weights are integer vectors of length n+1 (GL-style coordinates).  All
weights compared or combined in one computation are assumed to share a
coordinate sum, i.e. they lie in a single coset of the root lattice, so
equality of SL-weights is plain tuple equality.

A positive root a_{j,k} = a_j + ... + a_k is stored as the index pair
(j, k) with 1 <= j <= k <= n.  As a vector it has +1 at position j, -1
at position k+1 and 0 elsewhere.  Weyl group elements are permutations
of {0, ..., n} in one-line notation; reduced_word writes one as a word
in the simple reflections s_i, s_i swapping positions i and i+1
(1-based).

Everything here is a pure function on immutable tuples and safe to call
concurrently.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import accumulate
from operator import ge, le
from typing import Callable, Iterator, Optional

Weight = tuple[int, ...]
Root = tuple[int, int]
Permutation = tuple[int, ...]


class LineOrder(enum.Enum):
    """Relative position of two weights on a common root line."""

    LOWER = "lower"      # mu - k*beta is Bruhat-smaller than mu (see line_order)
    GREATER = "greater"  # mu - k*beta is Bruhat-greater than mu
    EQUAL = "equal"


@lru_cache(maxsize=None)
def positive_roots(n: int) -> tuple[Root, ...]:
    """All positive roots (j, k) of A_n, ordered lexicographically.

    >>> positive_roots(2)
    ((1, 1), (1, 2), (2, 2))
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    return tuple((j, k) for j in range(1, n + 1) for k in range(j, n + 1))


def in_parabolic(beta: Root, n: int) -> bool:
    """Whether beta lies in the sub-root-system generated by a_1, ..., a_{n-1}."""
    return beta[1] <= n - 1


def pairing(mu: Weight, beta: Root) -> int:
    """The coroot pairing <mu, beta^v> = mu_j - mu_{k+1}.

    >>> pairing((2, 1, 0), (1, 2))
    2
    """
    j, k = beta
    return mu[j - 1] - mu[k]


def rho_doubled(mu: Weight) -> int:
    """Twice <mu, rho^v>: the sum of the pairings of mu with every positive coroot.

    mu_i (0-based) pairs to +1 with n - i of them and to -1 with i of them.

    >>> rho_doubled((2, 1, 0))
    4
    """
    n = len(mu) - 1
    return sum((n - 2 * i) * m for i, m in enumerate(mu))


def is_dominant(mu: Weight) -> bool:
    """Whether the coordinates are weakly decreasing."""
    return all(map(ge, mu, mu[1:]))


@lru_cache(maxsize=None)
def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_r) with w = s_{i_1} ... s_{i_r}.

    Obtained by bubble sort; the word length equals the inversion number.

    >>> reduced_word((2, 0, 1))
    (2, 1)
    """
    cur = list(w)
    word: list[int] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(cur) - 1):
            if cur[i] > cur[i + 1]:
                # right multiplication by s_{i+1} removes this descent
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                word.append(i + 1)
                changed = True
    word.reverse()
    return tuple(word)


def bruhat_leq_dominant(mu: Weight, lam: Weight) -> bool:
    """Whether mu <= lam in the Bruhat order on weights, for dominant lam."""
    if len(mu) != len(lam):
        raise ValueError("weights must have equal length")
    return bruhat_below(lam)(mu)


def bruhat_below(lam: Weight) -> Callable[[Weight], bool]:
    """The test "mu <= lam" in the Bruhat order, with lam checked dominant here, once.

    Characterized by dominance: the prefix sums of the dominant
    representative mu+ are bounded by those of lam, with equal totals.
    The test raises ValueError for a mu of another length or coordinate sum.
    """
    if not is_dominant(lam):
        raise ValueError(f"comparison weight {lam} is not dominant")
    size, total, bounds = len(lam), sum(lam), tuple(accumulate(lam))

    def below(mu: Weight) -> bool:
        if len(mu) != size:
            raise ValueError("weights must have equal length")
        if sum(mu) != total:
            raise ValueError(
                f"coordinate sums differ ({sum(mu)} vs {total}): "
                "weights lie in different root-lattice cosets"
            )
        return all(map(le, accumulate(sorted(mu, reverse=True)), bounds))

    return below


def partitions(total: int, max_parts: int, bound: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing positive tuples summing to total."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    top = min(total, bound if bound is not None else total)
    for first in range(top, 0, -1):
        for rest in partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


def dominant_interval(lam: Weight) -> tuple[Weight, ...]:
    """Dominant weights below lam, largest first."""
    below = bruhat_below(lam)
    padded = (shape + (0,) * (len(lam) - len(shape)) for shape in partitions(sum(lam), len(lam)))
    return tuple(filter(below, padded))


def format_weight(mu: Weight) -> str:
    """Comma-separated coordinates, the form weights are entered in."""
    return ",".join(str(v) for v in mu)


def length_along(mu: Weight, beta: Root) -> int:
    """The length of mu along beta: <mu,b^v> if nonnegative, else -<mu,b^v>-1."""
    p = pairing(mu, beta)
    return p if p >= 0 else -p - 1


def length(mu: Weight) -> int:
    """The Bruhat length of mu, summed over all positive roots.

    >>> length((2, 1, 0))
    4
    """
    n = len(mu) - 1
    if n == 0:
        return 0
    return sum(length_along(mu, beta) for beta in positive_roots(n))


def line_order(mu: Weight, beta: Root, k: int) -> LineOrder:
    """Compare mu with nu = mu - k*beta, on the root line of beta, in the Bruhat order.

    Returns LOWER when nu < mu, GREATER when mu < nu, EQUAL when k = 0.
    nu < mu holds exactly when <mu,b^v> >= k > 0 or <mu,b^v> < k < 0.

    >>> line_order((1, 1), (1, 1), 1), line_order((2, 0), (1, 1), 1)
    (<LineOrder.GREATER: 'greater'>, <LineOrder.LOWER: 'lower'>)
    """
    if k == 0:
        return LineOrder.EQUAL
    p = pairing(mu, beta)
    if k > 0:
        return LineOrder.LOWER if p >= k else LineOrder.GREATER
    return LineOrder.LOWER if p < k else LineOrder.GREATER
