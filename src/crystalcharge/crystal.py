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

One left-to-right scan of each reading word fills all five operator
tables for every i at once: each letter v is an i+1 letter for
i = v-1 and an i letter for i = v, so one stack per index leaves
eps_i and phi_i (the numbers of unmatched i+1 and i letters) and the
cells where e_i and f_i act.  An image is looked up by an integer key,
the reading word packed one digit per cell; the digits are wide enough
for the letter rank+1, so f_i and e_i add and subtract one digit's
unit.  s_i, which swaps eps_i and phi_i, walks |phi_i - eps_i| steps
along the finished f_i or e_i row.

On top of the simple operators the module provides the Weyl group
action (s_i reverses each i-string), the modified operators
f_a = w f_k w^{-1} with w = s_j ... s_{k-1} for a = a_{j,k}, and the
operators obtained by conjugating f_n, e_n with any u satisfying
u(a_n) = a.

A Crystal is immutable once generated; all queries are pure and safe to
call from any number of threads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from math import comb
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
IntTable = tuple[tuple[int, ...], ...]

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

    Weyl's product over rows i < j of (lam_i - lam_j + j - i) / (j - i),
    in integers.  Equal parts give 1, and a block of equal parts in rows
    s..e-1 below row i gives C(d + e-1-i, d) / C(d + s-1-i, d), where d
    is the difference of the parts.  So the cost follows the distinct
    parts, not the rank (as pair by pair) or the part sizes (as cell by cell).

    >>> weyl_dimension((2, 1, 0), 2)
    8
    """
    lam = normalize_shape(shape, rank)
    starts = [r for r in range(1, rank + 1) if lam[r] != lam[r - 1]]
    numerator = denominator = 1
    for i in range(starts[-1] if starts else 0):
        for s, e in zip(starts, starts[1:] + [rank + 1]):
            if s > i:
                d = lam[i] - lam[s]
                numerator *= comb(d + e - 1 - i, d)
                denominator *= comb(d + s - 1 - i, d)
    dim, remainder = divmod(numerator, denominator)
    if remainder:
        raise CrystalStructureError(f"Weyl dimension of shape {lam} is not an integer")
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
    the highest-weight tableau (row r filled with r) comes first.  A cell
    with k cells below it in its column takes at most max_entry - k, the
    most that leaves room for the column below; so every partial filling
    completes, and the search never enters a dead end.
    """
    parts = tuple(p for p in parts if p > 0)
    if not parts:
        yield ()
        return
    if len(parts) > max_entry:
        return
    rows = [[0] * p for p in parts]
    cells = [(r, c) for r in range(len(parts)) for c in range(parts[r])]
    # rows r+1.. of column c that are at least c+1 long lie below cell (r, c)
    caps = [max_entry - sum(p > c for p in parts[r + 1 :]) for r, c in cells]
    last = len(cells) - 1
    # Depth-first without recursion, so a long row cannot exhaust the stack:
    # the cell at pos holds its last entry tried; past its cap, back up.
    pos = 0
    while pos >= 0:
        r, c = cells[pos]
        v = rows[r][c] + 1
        if v > caps[pos]:
            pos -= 1
            continue
        rows[r][c] = v
        if pos == last:
            yield tuple(tuple(row) for row in rows)
            continue
        pos += 1
        r, c = cells[pos]
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        rows[r][c] = lo - 1


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

    Use :meth:`generate`; the constructor, which takes the elements, is
    internal.  Elements are referred to by id.  One scan of each
    element's reading word fills the f_i, e_i, eps_i, phi_i and s_i
    tables for every i (s_i swaps the unmatched exponents eps_i and
    phi_i); everything else is derived from them.
    """

    def __init__(self, rank: int, shape: Weight, elements: tuple[TableauRows, ...]):
        self.rank = rank
        self.shape = shape
        self.elements = elements
        # one tuple per distinct weight, shared by every element of that weight
        shared: dict[Weight, Weight] = {}
        self.weights = tuple(shared.setdefault(mu, mu) for mu in map(content, elements, repeat(rank)))
        self._f, self._e, self._eps, self._phi, self._si = _operator_tables(elements, rank)

        by_weight: dict[Weight, list[int]] = {}
        for x, mu in enumerate(self.weights):
            by_weight.setdefault(mu, []).append(x)
        self._by_weight = {mu: tuple(xs) for mu, xs in by_weight.items()}

        tops = self._by_weight.get(self.shape, ())
        if len(tops) != 1:
            raise CrystalStructureError(f"{len(tops)} elements of highest weight, expected one")
        self.highest = tops[0]
        if any(self._e[i][self.highest] is not None for i in range(rank)):
            raise CrystalStructureError("the highest-weight element is not killed by every e_i")

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
        dim = weyl_dimension(lam, rank)
        if dim > max_elements:
            raise CrystalSizeError(
                f"crystal of shape {lam} at rank {rank} has {dim} elements, exceeding the cap of {max_elements}"
            )
        elements = tuple(semistandard_tableaux(lam, rank + 1))
        if len(elements) != dim:
            raise CrystalStructureError(f"{len(elements)} tableaux of shape {lam}, expected {dim}")
        return cls(rank, lam, elements)

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

    def eps(self, i: int, x: int) -> int:
        return self._eps[i - 1][x]

    def phi(self, i: int, x: int) -> int:
        return self._phi[i - 1][x]

    def elements_of_weight(self, mu: Weight) -> tuple[int, ...]:
        return self._by_weight.get(tuple(mu), ())

    # -- Weyl action ----------------------------------------------------

    def si(self, i: int, x: int) -> int:
        """The simple reflection s_i, reversing the i-string through x."""
        return self._si[i - 1][x]

    def weyl_act(self, w: Permutation, x: int) -> int:
        """Apply w along a reduced word, rightmost letter first; any word gives the same."""
        for i in reversed(reduced_word(w)):
            x = self._si[i - 1][x]
        return x

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
        y = self.root_op(direction, (self.rank, self.rank), y)
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
            "edges": [
                {"i": i, "from": x, "to": y}
                for i, row in enumerate(self._f, start=1)
                for x, y in enumerate(row)
                if y is not None
            ],
        }


def _operator_tables(
    elements: tuple[TableauRows, ...], rank: int
) -> tuple[OperatorTable, OperatorTable, IntTable, IntTable, IntTable]:
    """The f_i, e_i, eps_i, phi_i and s_i tables, from one scan of each reading word.

    s_i walks |phi_i - eps_i| steps along the finished f_i or e_i row.
    Each row becomes a tuple as soon as its s_i row is done, so a list
    and its tuple copy coexist for one row at a time.
    """
    f_table, e_table, eps_table, phi_table, ids = _signature_rows(elements, rank)
    si_table = []
    for j in range(rank):
        reversals = _string_reversals(f_table[j], e_table[j], eps_table[j], phi_table[j], ids)
        si_table.append(tuple(reversals))
        for table in (f_table, e_table, eps_table, phi_table):
            table[j] = tuple(table[j])
    return tuple(f_table), tuple(e_table), tuple(eps_table), tuple(phi_table), tuple(si_table)


def _signature_rows(
    elements: tuple[TableauRows, ...], rank: int
) -> tuple[list, list, list, list, tuple[int, ...]]:
    """The f_i, e_i, eps_i and phi_i rows as lists, and the ids they hold.

    A letter v plays two parts in the scan: for i = v-1 it is an i+1
    letter and goes on that index's stack, for i = v it is an i letter
    and cancels the top of that stack, or else stays unmatched.  At the
    end, for every i at once, the stack holds the eps_i unmatched i+1
    letters, its bottom the leftmost, where e_i acts; phi_i counts the
    unmatched i letters, the last one recorded being where f_i acts.

    Each element is keyed by its reading word packed into an int, one
    digit of whole bytes per position.  The digits are wide enough for
    the letter rank+1, so no operator carries into the next digit: the
    image of f_i at a position is the key plus that digit's unit, of e_i
    the key minus it.  Every image must be an element.
    """
    size = len(elements)
    # whole bytes per digit, enough for the letter rank+1; the first letter read is the lowest digit
    digit_bytes = ((rank + 1).bit_length() + 7) // 8
    width = 8 * digit_bytes
    letter = [v.to_bytes(digit_bytes, "little") for v in range(rank + 2)].__getitem__
    index = {
        int.from_bytes(b"".join(map(letter, chain.from_iterable(reversed(rows)))), "little"): x
        for x, rows in enumerate(elements)
    }
    if len(index) != size:
        raise CrystalStructureError(f"{size - len(index)} repeated tableaux")

    f_table = [[None] * size for _ in range(rank)]
    e_table = [[None] * size for _ in range(rank)]
    eps_table = [[0] * size for _ in range(rank)]
    phi_table = [[0] * size for _ in range(rank)]
    by_index = tuple(zip(range(1, rank + 1), f_table, e_table, eps_table, phi_table))
    blank = [0] * (rank + 2)
    for (key, x), rows in zip(index.items(), elements):
        # per index i: the unmatched i+1 letters on the stack and the shift of
        # its bottom one's digit, the unmatched i letters and that of the last one
        stack, bottom, unmatched, last = blank[:], blank[:], blank[:], blank[:]
        shift = 0
        for row in reversed(rows):
            for v in row:
                i = v - 1
                if stack[i]:
                    stack[i] += 1
                else:
                    stack[i] = 1
                    bottom[i] = shift
                if stack[v]:
                    stack[v] -= 1
                else:
                    unmatched[v] += 1
                    last[v] = shift
                shift += width
        for i, f_row, e_row, eps_row, phi_row in by_index:
            if unmatched[i]:
                phi_row[x] = unmatched[i]
                y = f_row[x] = index.get(key + (1 << last[i]))
                if y is None:
                    raise CrystalStructureError(f"f_{i} of {rows} is not an element")
            if stack[i]:
                eps_row[x] = stack[i]
                y = e_row[x] = index.get(key - (1 << bottom[i]))
                if y is None:
                    raise CrystalStructureError(f"e_{i} of {rows} is not an element")
    # the id objects of the f and e rows, so that the fixed points of s_i share them
    return f_table, e_table, eps_table, phi_table, tuple(index.values())


def _string_reversals(
    f_row: list, e_row: list, eps_row: list, phi_row: list, ids: tuple[int, ...]
) -> Iterator[int]:
    """s_i of each id: phi_i - eps_i steps of f_i, or eps_i - phi_i steps of e_i."""
    for x in ids:
        m = phi_row[x] - eps_row[x]
        walk = f_row if m >= 0 else e_row
        y = x
        for _ in range(abs(m)):
            y = walk[y]
        yield y
