"""
Twisted Bruhat graphs on lower weight intervals.

For a dominant weight lam' the interval I(lam') holds all weights below
it in the Bruhat order on the weight lattice.  Each pair of interval
weights on a common root line {mu, mu - k*beta} (k > 0) is joined by a
single directed edge labeled by a positive affine coroot:

    arrow (mu - k*beta) -> mu, label (<mu,b^v> - k) delta + beta^v,
        when <mu,b^v> >= k;
    arrow mu -> (mu - k*beta), label (k - <mu,b^v>) delta - beta^v,
        otherwise.

Arrows point from Bruhat-smaller to Bruhat-larger, so at stage 0 the
in-degree of every vertex equals its Bruhat length.  At stage m the
edges whose labels are the first m coroots in the order

    delta - a_{1,n}^v < delta - a_{2,n}^v < ... < delta - a_n^v
        < 2 delta - a_{1,n}^v < ...

are reversed; stage infinity reverses every edge of that shape.  Labels
with sign +1 or with finite part inside the a_1..a_{n-1} subsystem are
never reversed.

All stages share the interval's vertices and edges, so
`interval_graph(lam')` builds them once, numbers the vertices in
lexicographic order and keeps each edge as (src id, dst id, label,
reversal index).  `.at(m)` gives the stage-m graph as a view that
copies no edge: its in-degrees are a list by id, the stage-0 list
corrected by the edges of index <= m, and its edges are given in
weights, oriented only when read.

An edge's label and orientation depend on its endpoints alone, never on
lam', so for every dominant h below lam' the graph over I(h) is the
induced subgraph of the graph over I(lam').  One interval graph serves a
whole family of intervals: `.restrict(h)` keeps the ids, masks those
whose dominant representative lies below h, and keeps the edges whose
stage-0 head is masked, in order.  The direct `interval_graph(h)`
stays the oracle for the restriction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, groupby
from operator import itemgetter
from typing import Union

from .root_data import (
    Root,
    Weight,
    bruhat_below,
    bruhat_leq_dominant,
    dominant_interval,
    in_parabolic,
    is_dominant,
    length_along,
    pairing,
    positive_roots,
)

Stage = Union[int, float]

STAGE_INFINITY: Stage = math.inf


@dataclass(frozen=True)
class AffineCoroot:
    """A positive real affine coroot `level * delta + sign * root^v`."""

    level: int
    root: Root
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.level < 0 or (self.level == 0 and self.sign != 1):
            raise ValueError(f"{self} is not a positive affine coroot")

    def reversal_index(self, rank: int) -> int | None:
        """Position in the reversal order, or None if never reversed."""
        if self.sign != -1 or in_parabolic(self.root, rank):
            return None
        return (self.level - 1) * rank + self.root[0]

    def shift(self, mu: Weight) -> int:
        """The k with t(mu) = mu - k*root, t this coroot's reflection: <mu,root^v> - sign * level."""
        return pairing(mu, self.root) - self.sign * self.level

    def render(self) -> str:
        j, k = self.root
        root_text = f"α[{j},{k}]∨"
        sign_text = "+" if self.sign == 1 else "-"
        if self.level == 0:
            return root_text
        level_text = "δ" if self.level == 1 else f"{self.level}δ"
        return f"{level_text}{sign_text}{root_text}"

    def to_json_dict(self) -> dict:
        return {"level": self.level, "root": list(self.root), "sign": self.sign}


@dataclass(frozen=True)
class TwistedGraph:
    """The stage-m twisted Bruhat graph on I(base); immutable.

    A view of `interval`, whose vertices it shares: its own are the
    in-degrees, a list indexed by vertex id (0 outside the interval's
    mask).  The edge list is given in weights, oriented on each read.
    """

    base: Weight
    stage: Stage
    vertices: tuple[Weight, ...]
    indegree: list[int] = field(repr=False)
    interval: IntervalGraph = field(repr=False, compare=False)

    @property
    def edges(self) -> tuple[tuple[Weight, Weight, AffineCoroot], ...]:
        """Every edge as (src, dst, label), in the interval's edge order."""
        w, stage = self.interval.weights, self.stage
        return tuple(
            (w[dst], w[src], label) if index is not None and index <= stage else (w[src], w[dst], label)
            for src, dst, label, index in self.interval.edges
        )

    def arr(self, mu: Weight) -> int:
        """Number of arrows directed to mu."""
        key = mu if type(mu) is tuple else tuple(mu)
        i = self.interval.ids.get(key)
        if i is None or not self.interval.mask[i]:
            raise ValueError(f"{key} is not a vertex of the graph over {self.base}")
        return self.indegree[i]


@dataclass(frozen=True)
class IntervalGraph:
    """I(base) with its stage-0 edges, on vertex ids; every stage graph is a view of it.

    `weights` numbers the vertices of the graph that was built, `ids`
    maps them back, and a restriction shares both and marks its own ids
    in `mask`.  Each edge (src, dst, label, index) joins two ids, is
    oriented as at stage 0 and carries the reversal index of its label,
    or None when the edge is never reversed.  Derived: the vertices in
    the mask, the stage-0 in-degree of each id, the reversible edges
    sorted by index, and the largest index, the stabilization stage.
    """

    base: Weight
    weights: tuple[Weight, ...] = field(repr=False)
    ids: dict[Weight, int] = field(repr=False, compare=False)
    edges: tuple[tuple[int, int, AffineCoroot, int | None], ...]
    mask: tuple[bool, ...] = field(repr=False)
    vertices: tuple[Weight, ...] = field(init=False, repr=False, compare=False)
    stabilization_stage: int = field(init=False)
    indegree: list[int] = field(init=False, repr=False, compare=False)
    flips: tuple[tuple[int, int, AffineCoroot, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        indegree = [0] * len(self.weights)
        for _, dst, _, _ in self.edges:
            indegree[dst] += 1
        # a reversal index is never 0, so the reversible edges are those with a true index
        flips = sorted(compress(self.edges, map(itemgetter(3), self.edges)), key=itemgetter(3))
        object.__setattr__(self, "vertices", tuple(compress(self.weights, self.mask)))
        object.__setattr__(self, "stabilization_stage", flips[-1][3] if flips else 0)
        object.__setattr__(self, "indegree", indegree)
        object.__setattr__(self, "flips", tuple(flips))

    def at(self, stage: Stage) -> TwistedGraph:
        """The stage graph: edges with reversal index <= stage point the other way."""
        if stage != STAGE_INFINITY and (type(stage) is not int or stage < 0):
            raise ValueError(f"stage must be a nonnegative integer or infinity, got {stage!r}")
        indegree = list(self.indegree)
        for src, dst, _, index in self.flips:
            if index > stage:
                break
            indegree[src] += 1
            indegree[dst] -= 1
        return TwistedGraph(self.base, stage, self.vertices, indegree, self)

    def restrict(self, below: Weight) -> IntervalGraph:
        """The graph over I(below), for a dominant weight below the base, on the same ids.

        The mask holds the ids whose dominant representative lies below.
        The tail of a stage-0 edge lies below its head, so the edges of
        I(below) are exactly those whose stage-0 head lies in it.
        """
        h = tuple(below)
        if h == self.base:
            return self
        if not is_dominant(h) or not bruhat_leq_dominant(h, self.base):
            raise ValueError(f"{h} is not a dominant weight below {self.base}")
        dominants, orbit_of = self._orbits
        inside = set(dominant_interval(h))
        mask = tuple(map([d in inside for d in dominants].__getitem__, orbit_of))
        return IntervalGraph(h, self.weights, self.ids, tuple([e for e in self.edges if mask[e[1]]]), mask)

    @cached_property
    def _orbits(self) -> tuple[tuple[Weight, ...], list[int]]:
        """The distinct dominant representatives of the ids, and the position of each id's among them."""
        dominants: dict[Weight, int] = {}
        orbit_of = [dominants.setdefault(tuple(sorted(mu, reverse=True)), len(dominants)) for mu in self.weights]
        return tuple(dominants), orbit_of


def _rearrangements(mu: Weight) -> list[Weight]:
    """The distinct rearrangements of mu, in lexicographic order.

    Steps through them with the classical next-permutation rule, so the
    cost is per rearrangement and no call nests.
    """
    word = sorted(mu)
    out = [tuple(word)]
    while True:
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = reversed(word[i + 1 :])
        out.append(tuple(word))


def _check_base(lam: Weight) -> None:
    if len(lam) < 2:
        raise ValueError(f"rank must be >= 1, got {len(lam) - 1}")
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    if lam[-1] < 0:
        raise ValueError(f"{lam} has negative coordinates")


def interval_size(lambda_prime: Weight) -> int:
    """The number of weights below lambda_prime, counted before any is built.

    Sums the orbit size of each dominant weight below lambda_prime, the
    multinomial coefficient of its multiplicities.

    >>> interval_size((6, 5, 4, 3, 2, 1, 0))
    36961
    """
    lam = tuple(lambda_prime)
    _check_base(lam)
    total = 0
    for mu in dominant_interval(lam):
        orbit = math.factorial(len(lam))
        for count in Counter(mu).values():
            orbit //= math.factorial(count)
        total += orbit
    return total


def build_interval(lambda_prime: Weight) -> tuple[Weight, ...]:
    """All weights below lambda_prime, in lexicographic order.

    A weight lies below lambda_prime exactly when its dominant
    representative does, so the interval is the set of distinct
    rearrangements of the dominant weights below lambda_prime.
    """
    lam = tuple(lambda_prime)
    _check_base(lam)
    return tuple(sorted(w for mu in dominant_interval(lam) for w in _rearrangements(mu)))


def interval_graph(lambda_prime: Weight) -> IntervalGraph:
    """I(lambda_prime) with every root-line edge, oriented as at stage 0.

    Every coordinate of a weight below lambda_prime lies between its last
    and first coordinates, so the walk from mu along a_{j,k} leaves the
    interval at once unless mu_j can fall and mu_{k+1} can rise.  Only
    those roots are walked, in lexicographic order, so at high rank a
    weight with few coordinates off the extremes walks few roots.  A
    walk also stops as soon as one of its two coordinates passes an
    extreme, before the step's weight is built.
    """
    lam = tuple(lambda_prime)
    n = len(lam) - 1
    low, high = lam[-1], lam[0]
    vertices = build_interval(lam)
    ids = {mu: i for i, mu in enumerate(vertices)}
    labels: dict[tuple[int, Root, int], tuple[AffineCoroot, int | None]] = {}
    edges = []
    by_tail = [()] + [tuple(run) for _, run in groupby(positive_roots(n), itemgetter(0))]
    for i, mu in enumerate(vertices):
        tails = [j for j in range(1, n + 1) if mu[j - 1] > low]
        nu = list(mu)
        for beta in [b for j in tails for b in by_tail[j] if mu[b[1]] < high]:
            j, k = beta
            p = mu[j - 1] - mu[k]
            step = 1
            while True:
                nu[j - 1] -= 1
                nu[k] += 1
                if nu[j - 1] < low or nu[k] > high:
                    break
                other = ids.get(tuple(nu))
                if other is None:
                    break
                if p >= step:
                    src, dst, key = other, i, (p - step, beta, 1)
                else:
                    src, dst, key = i, other, (step - p, beta, -1)
                entry = labels.get(key)
                if entry is None:
                    label = AffineCoroot(*key)
                    entry = labels[key] = (label, label.reversal_index(n))
                edges.append((src, dst, *entry))
                step += 1
            nu[j - 1], nu[k] = mu[j - 1], mu[k]
    return IntervalGraph(lam, vertices, ids, tuple(edges), (True,) * len(vertices))


def build_graph(lambda_prime: Weight, stage: Stage) -> TwistedGraph:
    """The twisted Bruhat graph on I(lambda_prime) at the given stage."""
    return interval_graph(lambda_prime).at(stage)


def stage_reflection(m_plus_1: int, rank: int) -> AffineCoroot:
    """The (m+1)-th coroot in the reversal order: c*delta - a_{j,n}^v.

    >>> stage_reflection(3, 2)
    AffineCoroot(level=2, root=(1, 2), sign=-1)
    """
    if m_plus_1 < 1:
        raise ValueError(f"stage index must be >= 1, got {m_plus_1}")
    c = -(-m_plus_1 // rank)
    j = m_plus_1 - (c - 1) * rank
    return AffineCoroot(c, (j, rank), -1)


def apply_affine_reflection(a: AffineCoroot, mu: Weight) -> Weight:
    """The affine reflection attached to a coroot, acting on weights.

    For c*delta - b^v the weight moves by -(c + <mu,b^v>) b; for
    c*delta + b^v by -(<mu,b^v> - c) b.  Consistent with edge labels:
    reflecting an edge's head yields its tail.
    """
    j, k = a.root
    if not 1 <= j <= k < len(mu):
        raise ValueError(f"invalid root {a.root} for rank {len(mu) - 1}")
    shift = a.shift(mu)
    out = list(mu)
    out[j - 1] -= shift
    out[k] += shift
    return tuple(out)


def arr_infinity_formula(mu: Weight, lambda_prime: Weight) -> int:
    """Closed form for the stage-infinity in-degree of mu in I(lambda_prime).

    Sums, over roots outside the a_1..a_{n-1} subsystem, the largest k
    with mu - k*beta still below lambda_prime, plus the lengths along
    the remaining roots.
    """
    lam = tuple(lambda_prime)
    n = len(lam) - 1
    below = bruhat_below(lam)
    if not below(mu):
        raise ValueError(f"{mu} is not below {lam}")
    total = 0
    for beta in positive_roots(n):
        if in_parabolic(beta, n):
            total += length_along(mu, beta)
        else:
            j, k = beta
            nu = list(mu)
            while True:
                nu[j - 1] -= 1
                nu[k] += 1
                if not below(nu):
                    break
                total += 1
    return total


def stabilization_stage(lambda_prime: Weight) -> int:
    """Smallest M with the stage-M graph equal to the stage-infinity graph.

    This is the largest reversal index over the edge labels of the
    interval (0 when no edge is reversible).
    """
    return interval_graph(lambda_prime).stabilization_stage
