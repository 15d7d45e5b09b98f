"""
Atomic decomposition of a crystal and the atomic number Z.

The decomposition is computed as the connected components of the graph
on crystal elements whose edges join x to s_i(x) for every simple
reflection and to f_n(x).  Each component carries pairwise-distinct
weights forming the lower Bruhat interval below a unique dominant
highest weight, and the atomic number

    Z(x) = <wt(x), rho^v> + sum over positive roots a of eps_a(x)

is constant on it.  Z is a half-integer, so atomic_number and
Atom.z_doubled keep it doubled, as an int.  Violations of this
structure are surfaced as AtomStructureError, never repaired silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crystal import Crystal
from .root_data import (
    Weight,
    bruhat_below,
    is_dominant,
    positive_roots,
    rho_doubled,
)


class AtomStructureError(RuntimeError):
    """A component of the atom graph lacks a unique dominant maximal weight."""


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass(frozen=True)
class Atom:
    """One atom: element ids, dominant highest weight, constant Z (doubled)."""

    highest_weight: Weight
    element_ids: tuple[int, ...]
    z_doubled: int

    @property
    def size(self) -> int:
        return len(self.element_ids)

    def to_json_dict(self) -> dict:
        return {
            "highest_weight": list(self.highest_weight),
            "size": self.size,
            "z_doubled": self.z_doubled,
            "element_ids": list(self.element_ids),
        }


@dataclass(frozen=True)
class AtomDecomposition:
    """A partition of a crystal's elements into atoms."""

    atoms: tuple[Atom, ...]
    member_of: tuple[int, ...]

    def atom_of(self, x: int) -> Atom:
        return self.atoms[self.member_of[x]]


def atomic_number(crystal: Crystal, x: int) -> int:
    """2 Z(x), the atomic number doubled.

    Equivalently -<wt(x), rho^v> plus the sum of phi_a(x), since
    phi_a - eps_a pairs the weight with each coroot.  eps of a_{j,k} is
    eps_k after s_j, ..., s_{k-1}, so one walk per j reads the roots
    a_{j,j}, ..., a_{j,n} in turn.
    """
    n = crystal.rank
    eps_sum = 0
    for j in range(1, n + 1):
        y = x
        for k in range(j, n + 1):
            eps_sum += crystal.eps(k, y)
            y = crystal.si(k, y)
    return rho_doubled(crystal.weight(x)) + 2 * eps_sum


def decompose(crystal: Crystal) -> AtomDecomposition:
    """Split the crystal into atoms.

    Components are computed by union-find over the generator edges
    s_1, ..., s_n and f_n; full Weyl-orbit edges are redundant.  Z is
    evaluated once per atom, at its highest-weight element.
    """
    n = crystal.rank
    uf = _UnionFind(crystal.size)
    for x in range(crystal.size):
        for i in range(1, n + 1):
            uf.union(x, crystal.si(i, x))
        y = crystal.f(n, x)
        if y is not None:
            uf.union(x, y)

    components: dict[int, list[int]] = {}
    for x in range(crystal.size):
        components.setdefault(uf.find(x), []).append(x)

    atoms = []
    for members in components.values():
        dominant_members = [x for x in members if is_dominant(crystal.weight(x))]
        if not dominant_members:
            raise AtomStructureError("component without a dominant weight")
        top = max(dominant_members, key=lambda x: rho_doubled(crystal.weight(x)))
        highest = crystal.weight(top)
        below = bruhat_below(highest)
        for x in members:
            if not below(crystal.weight(x)):
                raise AtomStructureError(
                    f"component weight {crystal.weight(x)} not below candidate "
                    f"highest weight {highest}"
                )
        atoms.append(Atom(highest, tuple(sorted(members)), atomic_number(crystal, top)))

    atoms.sort(key=lambda atom: (atom.highest_weight, -atom.element_ids[0]), reverse=True)
    member_of = [0] * crystal.size
    for idx, atom in enumerate(atoms):
        for x in atom.element_ids:
            member_of[x] = idx
    return AtomDecomposition(tuple(atoms), tuple(member_of))


def bplus_components(crystal: Crystal) -> tuple[tuple[int, ...], ...]:
    """Components of the graph on dominant-weight elements with tilde edges.

    Vertices are the elements of dominant weight, with an undirected
    edge between x and the image of x under the conjugated lowering
    operator for each positive root, whenever that image is defined and
    has dominant weight.
    """
    vertices = [x for x in range(crystal.size) if is_dominant(crystal.weight(x))]
    position = {x: idx for idx, x in enumerate(vertices)}
    uf = _UnionFind(len(vertices))
    for x in vertices:
        for beta in positive_roots(crystal.rank):
            y = crystal.tilde_op("f", beta, x)
            if y is not None and y in position:
                uf.union(position[x], position[y])
    components: dict[int, list[int]] = {}
    for x in vertices:
        components.setdefault(uf.find(position[x]), []).append(x)
    return tuple(
        tuple(sorted(members))
        for members in sorted(components.values(), key=lambda ms: min(ms))
    )
