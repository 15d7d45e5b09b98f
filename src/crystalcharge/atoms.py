"""
Atomic decomposition of a crystal and the atomic number Z.

The decomposition is computed as the connected components of the graph
on crystal elements whose edges join x to s_i(x) for every simple
reflection and to f_n(x), found by one flood fill over the id rows of
s_1, ..., s_n and f_n.  e_n is never read, so the components follow the
edges as given, also when f_n is not injective.  Each component carries
pairwise-distinct weights forming the lower Bruhat interval below a
unique dominant highest weight, and the atomic number

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
    rho_doubled,
)


class AtomStructureError(RuntimeError):
    """A component of the atom graph lacks a unique dominant maximal weight."""


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


def _components(size: int, rows: list) -> list[list[int]]:
    """The components of the undirected graph on range(size) with an edge x - row[x] for each row.

    A None entry adds no edge.  A row that is an involution reaches
    back through itself; the edges of any other row are also kept
    reversed, by head.  Each component is listed from its least id.
    """
    back: dict[int, list[int]] = {}
    for row in rows:
        if None in row or list(map(row.__getitem__, row)) != list(range(size)):
            for x, y in enumerate(row):
                if y is not None:
                    back.setdefault(y, []).append(x)
    seen = [False] * size
    components = []
    for start in range(size):
        if seen[start]:
            continue
        seen[start] = True
        members = [start]
        # members grows while it is read, so each id is expanded once
        for x in members:
            for row in rows:
                y = row[x]
                if y is not None and not seen[y]:
                    seen[y] = True
                    members.append(y)
            for y in back.get(x, ()):
                if not seen[y]:
                    seen[y] = True
                    members.append(y)
        components.append(members)
    return components


def decompose(crystal: Crystal) -> AtomDecomposition:
    """Split the crystal into atoms.

    Components are found by a flood fill over the generator rows s_1,
    ..., s_n and f_n; full Weyl-orbit edges are redundant.  Each distinct
    weight of a component is checked once.  Z is evaluated once per
    atom, at its highest-weight element.
    """
    n, weights = crystal.rank, crystal.weights
    rows = [crystal.weyl_row((i,)) for i in range(1, n + 1)] + [crystal._f[n - 1]]
    atoms = []
    for members in map(sorted, _components(crystal.size, rows)):
        # each distinct weight once, with its least member, in the order of those members
        first: dict[Weight, int] = {}
        for x in members:
            first.setdefault(weights[x], x)
        dominant = [mu for mu in first if is_dominant(mu)]
        if not dominant:
            raise AtomStructureError("component without a dominant weight")
        highest = max(dominant, key=rho_doubled)
        below = bruhat_below(highest)
        for mu in first:
            if not below(mu):
                raise AtomStructureError(f"component weight {mu} not below candidate highest weight {highest}")
        atoms.append(Atom(highest, tuple(members), atomic_number(crystal, first[highest])))

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
    operator u f_n u^{-1} for each positive root, whenever that image is
    defined and has dominant weight.  The images are read from the
    crystal's conjugated rows (Crystal.tilde_rows), one per root.
    """
    vertices = [x for x in range(crystal.size) if is_dominant(crystal.weight(x))]
    position = {x: idx for idx, x in enumerate(vertices)}
    rows = [list(map(position.get, map(row.__getitem__, vertices))) for row in crystal.tilde_rows.values()]
    return tuple(sorted(tuple(sorted(vertices[p] for p in members)) for members in _components(len(vertices), rows)))
