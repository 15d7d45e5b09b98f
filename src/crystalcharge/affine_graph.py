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
`interval_graph(lam', rank)` builds them once, each edge with the
reversal index of its label, and `.at(m)` gives the stage-m graph as a
view that flips the edges with index <= m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """The stage-m twisted Bruhat graph on I(base); immutable."""

    base: Weight
    stage: Stage
    vertices: tuple[Weight, ...]
    edges: tuple[tuple[Weight, Weight, AffineCoroot], ...]
    indegree: dict[Weight, int] = field(repr=False)

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
    never reversed.  The largest index is the stabilization stage.
    """

    base: Weight
    vertices: tuple[Weight, ...]
    edges: tuple[tuple[Weight, Weight, AffineCoroot, int | None], ...]
    stabilization_stage: int

    def at(self, stage: Stage) -> TwistedGraph:
        """The stage graph: edges with reversal index <= stage point the other way."""
        if stage != STAGE_INFINITY and (type(stage) is not int or stage < 0):
            raise ValueError(f"stage must be a nonnegative integer or infinity, got {stage!r}")
        indegree = dict.fromkeys(self.vertices, 0)
        edges = []
        for src, dst, label, index in self.edges:
            if index is not None and index <= stage:
                src, dst = dst, src
            edges.append((src, dst, label))
            indegree[dst] += 1
        return TwistedGraph(self.base, stage, self.vertices, tuple(edges), indegree)


def _rearrangements(mu: Weight) -> list[Weight]:
    """The distinct rearrangements of mu, in lexicographic order."""
    if not mu:
        return [()]
    return [
        (v,) + rest
        for v in sorted(set(mu))
        for rest in _rearrangements(mu[: mu.index(v)] + mu[mu.index(v) + 1 :])
    ]


def build_interval(lambda_prime: Weight, rank: int) -> tuple[Weight, ...]:
    """All weights below lambda_prime, in lexicographic order.

    A weight lies below lambda_prime exactly when its dominant
    representative does, so the interval is the set of distinct
    rearrangements of the dominant weights below lambda_prime.
    """
    lam = tuple(lambda_prime)
    if len(lam) != rank + 1:
        raise ValueError(f"weight {lam} has wrong length for rank {rank}")
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    if lam and lam[-1] < 0:
        raise ValueError(f"{lam} has negative coordinates")
    return tuple(sorted(w for mu in dominant_interval(lam, rank) for w in _rearrangements(mu)))


def interval_graph(lambda_prime: Weight, rank: int | None = None) -> IntervalGraph:
    """I(lambda_prime) with every root-line edge, oriented as at stage 0."""
    lam = tuple(lambda_prime)
    n = rank if rank is not None else len(lam) - 1
    vertices = build_interval(lam, n)
    vertex_set = set(vertices)
    labels: dict[tuple[int, Root, int], tuple[AffineCoroot, int | None]] = {}
    edges = []
    for mu in vertices:
        for beta in positive_roots(n):
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
    top = max((index for _, index in labels.values() if index is not None), default=0)
    return IntervalGraph(lam, vertices, tuple(edges), top)


def build_graph(lambda_prime: Weight, stage: Stage, rank: int | None = None) -> TwistedGraph:
    """The twisted Bruhat graph on I(lambda_prime) at the given stage."""
    return interval_graph(lambda_prime, rank).at(stage)


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


def stabilization_stage(lambda_prime: Weight, rank: int | None = None) -> int:
    """Smallest M with the stage-M graph equal to the stage-infinity graph.

    This is the largest reversal index over the edge labels of the
    interval (0 when no edge is reversible).
    """
    return interval_graph(lambda_prime, rank).stabilization_stage
