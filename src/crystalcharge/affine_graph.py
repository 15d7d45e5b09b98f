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
`interval_graph(lam')` builds them once, each edge with the
reversal index of its label.  `.at(m)` gives the stage-m graph as a view
that copies no edge: its in-degrees are the stage-0 ones corrected by the
edges of index <= m, and its edge list is oriented only when read.

An edge's label and orientation depend on its endpoints alone, never on
lam', so for every dominant h below lam' the graph over I(h) is the
induced subgraph of the graph over I(lam').  One interval graph serves a
whole family of intervals: `.restrict(h)` keeps the vertices whose
dominant representative lies below h and the edges whose stage-0 head
does, in their order.  The direct `interval_graph(h)` stays the oracle
for the restriction.
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
    bruhat_leq_dominant,
    dominant_interval,
    in_parabolic,
    is_dominant,
    length_along,
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

    A view of `interval`: the in-degrees are its own, and the edge list is
    oriented from the interval's edges on first read.
    """

    base: Weight
    stage: Stage
    vertices: tuple[Weight, ...]
    indegree: dict[Weight, int] = field(repr=False)
    interval: IntervalGraph = field(repr=False, compare=False)

    @cached_property
    def edges(self) -> tuple[tuple[Weight, Weight, AffineCoroot], ...]:
        """Every edge as (src, dst, label), in the interval's edge order."""
        stage = self.stage
        return tuple(
            (dst, src, label) if index is not None and index <= stage else (src, dst, label)
            for src, dst, label, index in self.interval.edges
        )

    def arr(self, mu: Weight) -> int:
        """Number of arrows directed to mu."""
        mu = tuple(mu)
        if mu not in self.indegree:
            raise ValueError(f"{mu} is not a vertex of the graph over {self.base}")
        return self.indegree[mu]


@dataclass(frozen=True)
class IntervalGraph:
    """I(base) with its stage-0 edges; every stage graph is a view of it.

    Each edge (src, dst, label, index) is oriented as at stage 0 and
    carries the reversal index of its label, or None when the edge is
    never reversed.  The remaining fields are derived from the edges:
    the stage-0 in-degrees, the reversible edges as (index, src, dst)
    sorted by index, and the largest index, which is the stabilization
    stage.
    """

    base: Weight
    vertices: tuple[Weight, ...]
    edges: tuple[tuple[Weight, Weight, AffineCoroot, int | None], ...]
    stabilization_stage: int = field(init=False)
    indegree: dict[Weight, int] = field(init=False, repr=False, compare=False)
    flips: tuple[tuple[int, Weight, Weight], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        indegree = dict.fromkeys(self.vertices, 0)
        indegree.update(Counter(map(itemgetter(1), self.edges)))
        flips = sorted(
            ((index, src, dst) for src, dst, _, index in self.edges if index is not None),
            key=itemgetter(0),
        )
        object.__setattr__(self, "stabilization_stage", flips[-1][0] if flips else 0)
        object.__setattr__(self, "indegree", indegree)
        object.__setattr__(self, "flips", tuple(flips))

    def at(self, stage: Stage) -> TwistedGraph:
        """The stage graph: edges with reversal index <= stage point the other way."""
        if stage != STAGE_INFINITY and (type(stage) is not int or stage < 0):
            raise ValueError(f"stage must be a nonnegative integer or infinity, got {stage!r}")
        indegree = dict(self.indegree)
        for index, src, dst in self.flips:
            if index > stage:
                break
            indegree[src] += 1
            indegree[dst] -= 1
        return TwistedGraph(self.base, stage, self.vertices, indegree, self)

    def restrict(self, below: Weight) -> IntervalGraph:
        """The graph over I(below), for a dominant weight below the base.

        The tail of a stage-0 edge lies below its head, so the edges of
        I(below) are exactly those whose stage-0 head lies in it.
        """
        h = tuple(below)
        if h == self.base:
            return self
        if not is_dominant(h) or not bruhat_leq_dominant(h, self.base):
            raise ValueError(f"{h} is not a dominant weight below {self.base}")
        inside = set(dominant_interval(h)).__contains__
        vertex_orbits, head_orbits = self._orbits
        return IntervalGraph(
            h,
            tuple(compress(self.vertices, map(inside, vertex_orbits))),
            tuple(compress(self.edges, map(inside, head_orbits))),
        )

    @cached_property
    def _orbits(self) -> tuple[tuple[Weight, ...], tuple[Weight, ...]]:
        """The dominant representative of each vertex, and of each edge's stage-0 head."""
        orbit = {mu: tuple(sorted(mu, reverse=True)) for mu in self.vertices}
        return tuple(orbit.values()), tuple(orbit[dst] for _, dst, _, _ in self.edges)


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
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    if lam and lam[-1] < 0:
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
    weight with few coordinates off the extremes walks few roots.
    """
    lam = tuple(lambda_prime)
    n = len(lam) - 1
    vertices = build_interval(lam)
    vertex_set = set(vertices)
    labels: dict[tuple[int, Root, int], tuple[AffineCoroot, int | None]] = {}
    edges = []
    by_tail = [()] + [tuple(run) for _, run in groupby(positive_roots(n), itemgetter(0))]
    for mu in vertices:
        tails = [j for j in range(1, n + 1) if mu[j - 1] > lam[-1]]
        for beta in [b for j in tails for b in by_tail[j] if mu[b[1]] < lam[0]]:
            j, k = beta
            p = mu[j - 1] - mu[k]
            nu = list(mu)
            step = 1
            while True:
                nu[j - 1] -= 1
                nu[k] += 1
                tnu = tuple(nu)
                if tnu not in vertex_set:
                    break
                if p >= step:
                    src, dst, key = tnu, mu, (p - step, beta, 1)
                else:
                    src, dst, key = mu, tnu, (step - p, beta, -1)
                entry = labels.get(key)
                if entry is None:
                    label = AffineCoroot(*key)
                    entry = labels[key] = (label, label.reversal_index(n))
                edges.append((src, dst, *entry))
                step += 1
    return IntervalGraph(lam, vertices, tuple(edges))


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
    p = mu[j - 1] - mu[k]
    shift = (a.level + p) if a.sign == -1 else (p - a.level)
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
    if not bruhat_leq_dominant(mu, lam):
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
                if not bruhat_leq_dominant(nu, lam):
                    break
                total += 1
    return total


def stabilization_stage(lambda_prime: Weight) -> int:
    """Smallest M with the stage-M graph equal to the stage-infinity graph.

    This is the largest reversal index over the edge labels of the
    interval (0 when no edge is reversible).
    """
    return interval_graph(lambda_prime).stabilization_stage
