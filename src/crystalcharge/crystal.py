"""
The crystal B(lambda) for SL_{n+1} in the semistandard-tableau model.

Elements are semistandard Young tableaux of a fixed shape with entries
in 1..n+1 (rows weakly increase, columns strictly increase), identified
with integer ids in enumeration order.  The raising/lowering operators
are realized by the signature rule on the reading word that lists rows
bottom to top, each row left to right: for index i, an (i+1)-letter
immediately left of an i-letter cancels (applied repeatedly); f_i turns
the rightmost unmatched i into i+1, e_i turns the leftmost unmatched
i+1 into i.

On top of the simple operators the module provides the Weyl group
action (s_i reverses each i-string), the modified operators
f_a = w f_k w^{-1} with w = s_j ... s_{k-1} for a = a_{j,k}, and the
operators obtained by conjugating f_n, e_n with any u satisfying
u(a_n) = a.

A Crystal is immutable once generated; all queries are pure and safe to
call from any number of threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

from .root_data import (
    Permutation,
    Root,
    Weight,
    perm_inverse,
    reduced_word,
)

TableauRows = tuple[tuple[int, ...], ...]
OperatorTable = tuple[tuple[Optional[int], ...], ...]

DEFAULT_MAX_ELEMENTS = 2_000_000


class CrystalSizeError(ValueError):
    """Raised when a requested crystal exceeds the element-count cap."""


class CrystalStructureError(ValueError):
    """Raised when tableaux or operator tables break the tableau model."""


class StringStats(NamedTuple):
    """Maximal powers of e (eps) and f (phi) not annihilating an element."""

    eps: int
    phi: int


def normalize_shape(parts: tuple[int, ...], rank: int) -> Weight:
    """Validate a partition and pad it with zeros to length rank+1."""
    parts = tuple(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"shape {parts} has negative parts")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"shape {parts} is not weakly decreasing")
    stripped = parts
    while stripped and stripped[-1] == 0:
        stripped = stripped[:-1]
    if len(stripped) > rank + 1:
        raise ValueError(
            f"shape {parts} has {len(stripped)} nonzero parts; at most {rank + 1} allowed at rank {rank}"
        )
    return stripped + (0,) * (rank + 1 - len(stripped))


def weyl_dimension(shape: tuple[int, ...], rank: int) -> int:
    """Number of semistandard tableaux of the shape with entries <= rank+1.

    >>> weyl_dimension((2, 1, 0), 2)
    8
    """
    lam = normalize_shape(shape, rank)
    size = rank + 1
    dim = Fraction(1)
    for i in range(size):
        for j in range(i + 1, size):
            dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    if dim.denominator != 1:
        raise CrystalStructureError(f"Weyl dimension {dim} of shape {lam} is not an integer")
    return int(dim)


def capped_dimension(lam: Weight, rank: int, max_elements: int) -> int:
    """The Weyl dimension of a normalized shape; CrystalSizeError above max_elements."""
    dim = weyl_dimension(lam, rank)
    if dim > max_elements:
        raise CrystalSizeError(
            f"crystal of shape {lam} at rank {rank} has {dim} elements, "
            f"exceeding the cap of {max_elements}"
        )
    return dim


def content(rows: TableauRows, rank: int) -> Weight:
    """The content vector of a tableau: coordinate v counts the letter v+1."""
    counts = [0] * (rank + 1)
    for row in rows:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def is_semistandard(rows: TableauRows, max_entry: int) -> bool:
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if not 1 <= v <= max_entry:
                return False
            if c > 0 and row[c - 1] > v:
                return False
            if r > 0 and c < len(rows[r - 1]) and rows[r - 1][c] >= v:
                return False
    return True


def semistandard_tableaux(parts: tuple[int, ...], max_entry: int) -> Iterator[TableauRows]:
    """All semistandard tableaux of the given shape, in deterministic order.

    Cells are filled row-major with the smallest admissible entry first,
    so the output is lexicographic in the row-major filling sequence and
    the highest-weight tableau (row r filled with r) comes first.
    """
    parts = tuple(p for p in parts if p > 0)
    if not parts:
        yield ()
        return
    if len(parts) > max_entry:
        return
    rows = [[0] * p for p in parts]
    cells = [(r, c) for r in range(len(parts)) for c in range(parts[r])]

    def fill(pos: int) -> Iterator[TableauRows]:
        if pos == len(cells):
            yield tuple(tuple(row) for row in rows)
            return
        r, c = cells[pos]
        lo = 1
        if c > 0:
            lo = rows[r][c - 1]
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, max_entry + 1):
            rows[r][c] = v
            yield from fill(pos + 1)

    yield from fill(0)


def _unmatched_positions(
    rows: TableauRows, i: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Unmatched i and i+1 cells in reading order, after signature cancellation."""
    unmatched_lo: list[tuple[int, int]] = []
    stack: list[tuple[int, int]] = []
    for r in range(len(rows) - 1, -1, -1):
        for c, v in enumerate(rows[r]):
            if v == i + 1:
                stack.append((r, c))
            elif v == i:
                if stack:
                    stack.pop()
                else:
                    unmatched_lo.append((r, c))
    return unmatched_lo, stack


def _replace(rows: TableauRows, pos: tuple[int, int], value: int) -> TableauRows:
    r, c = pos
    row = rows[r][:c] + (value,) + rows[r][c + 1 :]
    return rows[:r] + (row,) + rows[r + 1 :]


@lru_cache(maxsize=None)
def conjugating_permutation(rank: int, beta: Root) -> Permutation:
    """The order-preserving u in S_{n+1} with u(a_n) = beta.

    u sends n to j and n+1 to k+1 (1-based letters) and keeps the
    relative order of the remaining letters.
    """
    j, k = beta
    size = rank + 1
    u = [-1] * size
    u[rank - 1] = j - 1
    u[rank] = k
    rest_targets = [t for t in range(size) if t != j - 1 and t != k]
    rest_sources = range(size - 2)
    for s, t in zip(rest_sources, rest_targets):
        u[s] = t
    return tuple(u)


class Crystal:
    """The crystal of all semistandard tableaux of one shape.

    Use :meth:`generate`; the constructor is internal.  Elements are
    referred to by id.  Operator tables for f_i, e_i and the simple
    Weyl action are precomputed; everything else is derived from them.
    """

    def __init__(
        self,
        rank: int,
        shape: Weight,
        elements: tuple[TableauRows, ...],
        f_table: OperatorTable,
        e_table: OperatorTable,
    ):
        self.rank = rank
        self.shape = shape
        self.elements = elements
        self.weights = tuple(content(rows, rank) for rows in elements)
        self.index = {rows: x for x, rows in enumerate(elements)}
        self._f = f_table
        self._e = e_table
        self._finish_tables()

    # -- construction -------------------------------------------------

    @classmethod
    def generate(
        cls, shape: tuple[int, ...], rank: int, max_elements: int = DEFAULT_MAX_ELEMENTS
    ) -> "Crystal":
        """Materialize B(lambda) with operator tables.

        Raises CrystalSizeError when the element count would exceed
        max_elements.
        """
        lam = normalize_shape(shape, rank)
        dim = capped_dimension(lam, rank, max_elements)
        elements = tuple(semistandard_tableaux(lam, rank + 1))
        if len(elements) != dim:
            raise CrystalStructureError(f"{len(elements)} tableaux of shape {lam}, expected {dim}")
        f_table, e_table = _operator_tables(elements, rank)
        return cls(rank, lam, elements, f_table, e_table)

    def _finish_tables(self) -> None:
        n, size = self.rank, len(self.elements)
        eps_table = []
        phi_table = []
        for i in range(1, n + 1):
            eps_row = []
            phi_row = []
            for x in range(size):
                e_steps = 0
                y = self._e[i - 1][x]
                while y is not None:
                    e_steps += 1
                    y = self._e[i - 1][y]
                eps_row.append(e_steps)
                f_steps = 0
                y = self._f[i - 1][x]
                while y is not None:
                    f_steps += 1
                    y = self._f[i - 1][y]
                phi_row.append(f_steps)
            eps_table.append(tuple(eps_row))
            phi_table.append(tuple(phi_row))
        self._eps = tuple(eps_table)
        self._phi = tuple(phi_table)

        si_table = []
        for i in range(1, n + 1):
            si_row = []
            for x in range(size):
                m = self._phi[i - 1][x] - self._eps[i - 1][x]
                y = x
                if m >= 0:
                    for _ in range(m):
                        y = self._f[i - 1][y]
                else:
                    for _ in range(-m):
                        y = self._e[i - 1][y]
                si_row.append(y)
            si_table.append(tuple(si_row))
        self._si = tuple(si_table)

        by_weight: dict[Weight, list[int]] = {}
        for x, mu in enumerate(self.weights):
            by_weight.setdefault(mu, []).append(x)
        self._by_weight = {mu: tuple(xs) for mu, xs in by_weight.items()}

        tops = self._by_weight.get(self.shape, ())
        if len(tops) != 1:
            raise CrystalStructureError(f"{len(tops)} elements of highest weight, expected one")
        self.highest = tops[0]
        if any(self._e[i][self.highest] is not None for i in range(n)):
            raise CrystalStructureError("the highest-weight element is not killed by every e_i")

    # -- simple operators ----------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    def weight(self, x: int) -> Weight:
        return self.weights[x]

    def f(self, i: int, x: int) -> Optional[int]:
        return self._f[i - 1][x]

    def e(self, i: int, x: int) -> Optional[int]:
        return self._e[i - 1][x]

    def op(self, direction: str, i: int, x: int) -> Optional[int]:
        if direction == "f":
            return self._f[i - 1][x]
        if direction == "e":
            return self._e[i - 1][x]
        raise ValueError(f"unknown operator direction {direction!r}")

    def eps(self, i: int, x: int) -> int:
        return self._eps[i - 1][x]

    def phi(self, i: int, x: int) -> int:
        return self._phi[i - 1][x]

    def string_stats(self, i: int, x: int) -> StringStats:
        return StringStats(self._eps[i - 1][x], self._phi[i - 1][x])

    def elements_of_weight(self, mu: Weight) -> tuple[int, ...]:
        return self._by_weight.get(tuple(mu), ())

    # -- Weyl action ----------------------------------------------------

    def si(self, i: int, x: int) -> int:
        """The simple reflection s_i, reversing the i-string through x."""
        return self._si[i - 1][x]

    def act_word(self, word: tuple[int, ...], x: int) -> int:
        """Apply s_{i_1} ... s_{i_r} to x (rightmost letter acts first)."""
        for i in reversed(word):
            x = self._si[i - 1][x]
        return x

    def weyl_act(self, w: Permutation, x: int) -> int:
        """Apply a Weyl group element; word-independent since si is an action."""
        return self.act_word(reduced_word(w), x)

    # -- modified operators f_a = w f_k w^{-1} ---------------------------

    def root_op(self, direction: str, beta: Root, x: int) -> Optional[int]:
        """f_beta or e_beta for a positive root beta = a_{j,k}."""
        return self.root_op_power(direction, beta, x, 1)

    def root_op_power(self, direction: str, beta: Root, x: int, power: int) -> Optional[int]:
        """Apply f_beta or e_beta `power` times; None as soon as it vanishes.

        Conjugation collapses: (w f_k w^{-1})^m = w f_k^m w^{-1}.
        """
        if direction not in ("f", "e"):
            raise ValueError(f"unknown operator direction {direction!r}")
        j, k = beta
        y: Optional[int] = x
        for i in range(j, k):
            y = self._si[i - 1][y]
        table = self._f[k - 1] if direction == "f" else self._e[k - 1]
        for _ in range(power):
            y = table[y]
            if y is None:
                return None
        for i in range(k - 1, j - 1, -1):
            y = self._si[i - 1][y]
        return y

    def root_string_stats(self, beta: Root, x: int) -> StringStats:
        """eps and phi along the beta-string: phi_beta = phi_k after w^{-1}."""
        j, k = beta
        y = x
        for i in range(j, k):
            y = self._si[i - 1][y]
        return StringStats(self._eps[k - 1][y], self._phi[k - 1][y])

    # -- operators conjugated from the last simple root -------------------

    def tilde_op(
        self, direction: str, beta: Root, x: int, u: Optional[Permutation] = None
    ) -> Optional[int]:
        """u f_n u^{-1} (resp. e_n) for any u with u(a_n) = beta.

        The result does not depend on the choice of u; by default the
        order-preserving permutation is used.
        """
        if u is None:
            u = conjugating_permutation(self.rank, beta)
        y = self.weyl_act(perm_inverse(u), x)
        y = self.op(direction, self.rank, y)
        if y is None:
            return None
        return self.weyl_act(u, y)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-ready dump with ids in enumeration order and f-edges."""
        return {
            "rank": self.rank,
            "shape": list(self.shape),
            "elements": [
                {"id": x, "rows": [list(row) for row in rows], "weight": list(self.weights[x])}
                for x, rows in enumerate(self.elements)
            ],
            "edges": _edge_records(self._f),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Crystal":
        """Rebuild a crystal from :meth:`to_json_dict` output.

        Contents are revalidated so that a corrupted dump fails loudly:
        every element must be a distinct semistandard tableau of the
        shape, and the stored edges must be those the signature rule
        gives on the stored elements.  A payload that is not shaped like
        that output (a missing key, a string for an integer) raises
        ValueError too.
        """
        rank = _field(data, "rank", _is_int)
        shape = normalize_shape(tuple(_field(data, "shape", _is_int_list)), rank)
        row_lengths = tuple(p for p in shape if p > 0)
        records = _field(data, "elements", lambda v: isinstance(v, list))
        for rec in records:
            _field(rec, "id", _is_int)
            _field(rec, "rows", lambda v: isinstance(v, list) and all(map(_is_int_list, v)))
            _field(rec, "weight", _is_int_list)
        records = sorted(records, key=lambda rec: rec["id"])
        if [rec["id"] for rec in records] != list(range(len(records))):
            raise ValueError("element ids must be 0..size-1")
        elements = tuple(tuple(tuple(row) for row in rec["rows"]) for rec in records)
        for rec, rows in zip(records, elements):
            if tuple(len(row) for row in rows) != row_lengths:
                raise ValueError(f"element {rec['id']} does not have shape {shape}")
            if not is_semistandard(rows, rank + 1):
                raise ValueError(f"element {rec['id']} is not semistandard")
            if tuple(rec["weight"]) != content(rows, rank):
                raise ValueError(f"element {rec['id']} has inconsistent weight")
        if len(set(elements)) != len(elements):
            raise ValueError("elements repeat")
        f_table, e_table = _operator_tables(elements, rank)
        if _field(data, "edges", lambda v: isinstance(v, list)) != _edge_records(f_table):
            raise ValueError("stored edges differ from the operators on the stored elements")
        return cls(rank, shape, elements, f_table, e_table)


def _is_int(value) -> bool:
    return type(value) is int


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def _field(record: object, key: str, well_typed) -> object:
    """record[key]; ValueError unless record is a dict whose key passes well_typed."""
    if not isinstance(record, dict) or key not in record:
        raise ValueError(f"crystal payload lacks {key!r}")
    if not well_typed(record[key]):
        raise ValueError(f"crystal payload has a malformed {key!r}")
    return record[key]


def _operator_tables(elements: tuple[TableauRows, ...], rank: int) -> tuple[OperatorTable, OperatorTable]:
    """The f_i and e_i tables by the signature rule; every image must be an element."""
    index = {rows: x for x, rows in enumerate(elements)}

    def image_id(rows: TableauRows, pos: tuple[int, int], value: int) -> int:
        image = _replace(rows, pos, value)
        y = index.get(image)
        if y is None:
            raise CrystalStructureError(f"operator image {image} is missing from the element set")
        return y

    f_table = []
    e_table = []
    for i in range(1, rank + 1):
        f_row: list[Optional[int]] = []
        e_row: list[Optional[int]] = []
        for rows in elements:
            lo, hi = _unmatched_positions(rows, i)
            f_row.append(image_id(rows, lo[-1], i + 1) if lo else None)
            e_row.append(image_id(rows, hi[0], i) if hi else None)
        f_table.append(tuple(f_row))
        e_table.append(tuple(e_row))
    return tuple(f_table), tuple(e_table)


def _edge_records(f_table: OperatorTable) -> list[dict]:
    """The f-edges as JSON records, by i and then source id."""
    return [
        {"i": i, "from": x, "to": y}
        for i, row in enumerate(f_table, start=1)
        for x, y in enumerate(row)
        if y is not None
    ]
