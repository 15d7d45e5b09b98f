"""
Atomic decomposition of a crystal and the atomic number Z.

The decomposition is computed as the connected components of the graph
on crystal elements whose edges join x to s_i(x) for every simple
reflection and to f_n(x).  Each component carries pairwise-distinct
weights forming the lower Bruhat interval below a unique dominant
highest weight, and the atomic number

    Z(x) = <wt(x), rho^v> + sum over positive roots a of eps_a(x)

is constant on it.  Violations of this structure are surfaced as
AtomStructureError, never repaired silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .affine_graph import build_interval
from .crystal import Crystal
from .root_data import (
    Weight,
    bruhat_leq_dominant,
    is_dominant,
    positive_roots,
    rho_pairing,
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
    """One atom: element ids, dominant highest weight, constant Z."""

    highest_weight: Weight
    element_ids: tuple[int, ...]
    z: Fraction

    @property
    def size(self) -> int:
        return len(self.element_ids)

    def to_json_dict(self) -> dict:
        z_doubled = 2 * self.z
        if z_doubled.denominator != 1:
            raise ArithmeticError(f"atomic number {self.z} is not a half-integer")
        return {
            "highest_weight": list(self.highest_weight),
            "size": self.size,
            "z_doubled": int(z_doubled),
            "element_ids": list(self.element_ids),
        }


@dataclass(frozen=True)
class AtomDecomposition:
    """A partition of a crystal's elements into atoms."""

    atoms: tuple[Atom, ...]
    member_of: tuple[int, ...]

    def atom_of(self, x: int) -> Atom:
        return self.atoms[self.member_of[x]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def atomic_number(crystal: Crystal, x: int) -> Fraction:
    """Z(x) as an exact half-integer.

    Equivalently -<wt(x), rho^v> plus the sum of phi_a(x), since
    phi_a - eps_a pairs the weight with each coroot.
    """
    eps_sum = 0
    for beta in positive_roots(crystal.rank):
        eps_sum += crystal.root_string_stats(beta, x).eps
    return rho_pairing(crystal.weight(x)) + eps_sum


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
        top = max(dominant_members, key=lambda x: rho_pairing(crystal.weight(x)))
        highest = crystal.weight(top)
        for x in members:
            if not bruhat_leq_dominant(crystal.weight(x), highest):
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


def validate_atom(atom: Atom, crystal: Crystal) -> ValidationReport:
    """Check the three defining properties of an atom; failures are data."""
    weights = [crystal.weight(x) for x in atom.element_ids]

    distinct = len(set(weights)) == len(weights)
    interval = sorted(build_interval(atom.highest_weight, crystal.rank))
    interval_ok = sorted(set(weights)) == interval
    z_values = {atomic_number(crystal, x) for x in atom.element_ids}
    z_ok = z_values == {atom.z}

    return ValidationReport(
        (
            CheckResult(
                "distinct-weights",
                distinct,
                "" if distinct else f"{len(weights) - len(set(weights))} repeated weights",
            ),
            CheckResult(
                "lower-interval",
                interval_ok,
                "" if interval_ok else f"weights != interval below {atom.highest_weight}",
            ),
            CheckResult(
                "constant-z",
                z_ok,
                "" if z_ok else f"Z values {sorted(z_values)} != {atom.z}",
            ),
        )
    )


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
