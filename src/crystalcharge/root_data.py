"""
Root and weight combinatorics for the type A_n root system of SL_{n+1}.

Weights are integer vectors of length n+1 (GL-style coordinates).  All
weights compared or combined in one computation are assumed to share a
coordinate sum, i.e. they lie in a single coset of the root lattice, so
equality of SL-weights is plain tuple equality.

A positive root a_{j,k} = a_j + ... + a_k is stored as the index pair
(j, k) with 1 <= j <= k <= n.  As a vector it has +1 at position j, -1
at position k+1 and 0 elsewhere.  Weyl group elements are permutations
of {0, ..., n} in one-line notation, acting on weights by permuting
coordinates; the simple reflection s_i swaps positions i and i+1
(1-based).

Everything here is a pure function on immutable tuples and safe to call
concurrently.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

Weight = tuple[int, ...]
Root = tuple[int, int]
Permutation = tuple[int, ...]


class LineOrder(enum.Enum):
    """Relative position of two weights on a common root line."""

    LOWER = "lower"      # second argument is Bruhat-smaller
    GREATER = "greater"  # second argument is Bruhat-greater
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


def root_vector(beta: Root, n: int) -> Weight:
    """The root a_{j,k} as a length-(n+1) coordinate vector."""
    j, k = beta
    if not 1 <= j <= k <= n:
        raise ValueError(f"invalid root {beta} for rank {n}")
    vec = [0] * (n + 1)
    vec[j - 1] = 1
    vec[k] = -1
    return tuple(vec)


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


def rho_pairing(mu: Weight) -> Fraction:
    """<mu, rho^v> as an exact half-integer, rho^v the half-sum of positive coroots.

    >>> rho_pairing((2, 1, 0))
    Fraction(2, 1)
    """
    n = len(mu) - 1
    if n == 0:
        return Fraction(0)
    total = sum(pairing(mu, beta) for beta in positive_roots(n))
    return Fraction(total, 2)


def is_dominant(mu: Weight) -> bool:
    """Whether the coordinates are weakly decreasing."""
    return all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1))


def weyl_apply_weight(w: Permutation, mu: Weight) -> Weight:
    """Act by the permutation w on coordinates: (w.mu)_{w(i)} = mu_i."""
    out = [0] * len(mu)
    for i, wi in enumerate(w):
        out[wi] = mu[i]
    return tuple(out)


def perm_identity(size: int) -> Permutation:
    return tuple(range(size))


def perm_inverse(w: Permutation) -> Permutation:
    out = [0] * len(w)
    for i, wi in enumerate(w):
        out[wi] = i
    return tuple(out)


def perm_compose(v: Permutation, w: Permutation) -> Permutation:
    """The composite v . w (w applied first)."""
    return tuple(v[wi] for wi in w)


def simple_reflection(i: int, size: int) -> Permutation:
    """s_i as a permutation of {0, ..., size-1}; swaps positions i, i+1 (1-based)."""
    if not 1 <= i <= size - 1:
        raise ValueError(f"invalid simple reflection index {i} for size {size}")
    out = list(range(size))
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def transposition(j: int, k: int, size: int) -> Permutation:
    """The reflection s_beta for beta = a_{j,k}, i.e. the transposition (j, k+1)."""
    out = list(range(size))
    out[j - 1], out[k] = out[k], out[j - 1]
    return tuple(out)


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


def dominant_representative(mu: Weight) -> tuple[Weight, Permutation]:
    """The dominant weight mu+ in W.mu together with a w such that w(mu) = mu+.

    w is the stable sorting permutation: equal coordinates keep their
    original order.  It is not necessarily of minimal length.

    >>> dominant_representative((0, 1, 2))
    ((2, 1, 0), (2, 1, 0))
    """
    order = sorted(range(len(mu)), key=lambda i: (-mu[i], i))
    w = [0] * len(mu)
    for rank_pos, src in enumerate(order):
        w[src] = rank_pos
    return tuple(mu[i] for i in order), tuple(w)


def bruhat_leq_dominant(mu: Weight, lam: Weight) -> bool:
    """Whether mu <= lam in the Bruhat order on weights, for dominant lam.

    Characterized by dominance: the prefix sums of the dominant
    representative mu+ are bounded by those of lam, with equal totals.
    """
    if len(mu) != len(lam):
        raise ValueError("weights must have equal length")
    if not is_dominant(lam):
        raise ValueError(f"comparison weight {lam} is not dominant")
    if sum(mu) != sum(lam):
        raise ValueError(
            f"coordinate sums differ ({sum(mu)} vs {sum(lam)}): "
            "weights lie in different root-lattice cosets"
        )
    partial = 0
    for a, b in zip(sorted(mu, reverse=True), lam):
        partial += a - b
        if partial > 0:
            return False
    return True


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
    result = []
    for shape in partitions(sum(lam), len(lam)):
        mu = shape + (0,) * (len(lam) - len(shape))
        if bruhat_leq_dominant(mu, lam):
            result.append(mu)
    return tuple(result)


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


def line_decompose(mu: Weight, nu: Weight) -> tuple[int, Root]:
    """Write mu - nu = k * beta with beta a positive root and k a nonzero integer.

    Raises ValueError when mu - nu is not a multiple of a single
    positive root (including mu = nu).
    """
    support = [i for i, a, b in zip(range(len(mu)), mu, nu) if a != b]
    if len(support) == 2:
        a, b = support
        k = mu[a] - nu[a]
        if k == nu[b] - mu[b]:
            return k, (a + 1, b)
    diff = tuple(a - b for a, b in zip(mu, nu))
    raise ValueError(f"difference {diff} does not lie on a root line")


def line_compare(mu: Weight, nu: Weight) -> LineOrder:
    """Compare two weights on a common root line in the Bruhat order.

    Returns LOWER when nu < mu, GREATER when mu < nu, EQUAL when they
    coincide.  With nu = mu - k*beta, nu < mu holds exactly when
    <mu,b^v> >= k > 0 or <mu,b^v> < k < 0.
    """
    if mu == nu:
        return LineOrder.EQUAL
    k, beta = line_decompose(mu, nu)
    p = pairing(mu, beta)
    if k > 0:
        return LineOrder.LOWER if p >= k else LineOrder.GREATER
    return LineOrder.LOWER if p < k else LineOrder.GREATER
