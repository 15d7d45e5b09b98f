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

One left-to-right scan of each reading word finds, for every i at
once, what the signature rule alone determines: the weight, eps_i (the
unmatched i+1 letters) and f_i (at the last unmatched i letter), its
image looked up by the reading word packed into an integer key.  The
rest follows from the crystal axioms: e_i is the inverse of f_i,
phi_i = eps_i + wt_i - wt_{i+1}, and s_i, which swaps eps_i and phi_i,
walks wt_i - wt_{i+1} steps along the finished f_i row, or as many back
along e_i.

On top of the simple operators the module provides the Weyl group
action (s_i reverses each i-string) and one conjugation routine, by
rows indexed by id.  weyl_row composes the s_i rows into the crystal
permutation of a word, memoised per crystal, and conjugate gathers the
f_k or e_k row between u^{-1} and u; u^{-1} applies the word's first
letter first, and no permutation is inverted.  So f_a = w f_k w^{-1}
with w = s_j ... s_{k-1} for a = a_{j,k} is one conjugated row, and
tilde_rows holds f_n conjugated by the order-preserving u with
u(a_n) = a for every positive root a (every such u gives the same
operator).

Generating a crystal enumerates its tableaux and computes their
weights, the elements of each weight, the highest element and the f_i,
e_i, eps_i and s_i tables.  A Crystal is immutable once generated; all
queries are pure and safe to call from any number of threads (two first
reads of one memoised row compute the same row).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress, permutations
from math import comb
from operator import lt, ne
from typing import Iterator, Optional, Sequence

from .root_data import (
    Permutation,
    Root,
    Weight,
    positive_roots,
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


def normalize_shape(parts: tuple[int, ...], rank: int) -> Weight:
    """Validate a rank and a partition, and pad the partition with zeros to length rank+1."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    parts = tuple(parts)
    if min(parts, default=0) < 0:
        raise ValueError(f"shape {parts} has negative parts")
    if any(map(lt, parts, parts[1:])):
        raise ValueError(f"shape {parts} is not weakly decreasing")
    # weakly decreasing and nonnegative: the zeros are the tail
    stripped = parts[: len(parts) - parts.count(0)]
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
    starts = list(compress(range(1, rank + 1), map(ne, lam[1:], lam)))
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


def capped_dimension(lam: Weight, rank: int, max_elements: int) -> int:
    """The size of B(lam) for a normalized shape; CrystalSizeError past max_elements."""
    dim = weyl_dimension(lam, rank)
    if dim > max_elements:
        raise CrystalSizeError(
            f"crystal of shape {lam} at rank {rank} has {dim} elements, exceeding the cap of {max_elements}"
        )
    return dim


def content(rows: TableauRows, rank: int) -> Weight:
    """The content vector of a tableau: coordinate v counts the letter v+1."""
    counts = [0] * (rank + 1)
    for row in rows:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def reading_word(rows: TableauRows) -> tuple[int, ...]:
    """Rows bottom to top, each row left to right."""
    return tuple(chain.from_iterable(reversed(rows)))


def unmatched_letters(word: Sequence[int], i: int) -> tuple[list[int], list[int]]:
    """The positions of a word's unmatched i letters and unmatched i+1 letters.

    An i letter cancels the nearest unmatched i+1 letter to its left; the
    rest reads i^phi (i+1)^eps, and s_i rewrites it as i^eps (i+1)^phi.
    The tables scan every index at once instead (_signature_rows).

    >>> unmatched_letters((2, 1, 1, 2, 2), 1)
    ([2], [3, 4])
    """
    lo, hi, up = [], [], i + 1
    for p, v in enumerate(word):
        if v == up:
            hi.append(p)
        elif v == i:
            if hi:
                hi.pop()
            else:
                lo.append(p)
    return lo, hi


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


def shape_tableaux(lam: Weight, rank: int, max_elements: int) -> tuple[TableauRows, ...]:
    """The tableaux of B(lam), lam normalized; CrystalSizeError past max_elements, before any is listed."""
    dim = capped_dimension(lam, rank, max_elements)
    elements = tuple(semistandard_tableaux(lam, rank + 1))
    if len(elements) != dim:
        raise CrystalStructureError(f"{len(elements)} tableaux of shape {lam}, expected {dim}")
    return elements


def tableaux_of_content(shape: Weight, mu: Weight) -> list[TableauRows]:
    """The tableaux of B(shape) of weight mu, in enumeration order; the rank is len(shape) - 1."""
    rank = len(shape) - 1
    return [rows for rows in semistandard_tableaux(shape, rank + 1) if content(rows, rank) == mu]


def conjugators(rank: int, beta: Root) -> Iterator[Permutation]:
    """Every u in S_{n+1} with u(a_n) = beta, the order-preserving one first.

    u sends n to j and n+1 to k+1 (1-based letters) and the remaining
    letters anywhere; there are (n-1)! of them.
    """
    j, k = beta
    rest_targets = [t for t in range(rank + 1) if t != j - 1 and t != k]
    for assignment in permutations(rest_targets):
        yield (*assignment, j - 1, k)


class Crystal:
    """The crystal of all semistandard tableaux of one shape.

    Use :meth:`generate`; the constructor is internal.  Elements are
    referred to by id.  The weights, the elements of each weight, the
    highest element and the f_i, e_i, eps_i and s_i tables are computed
    at construction (_operator_tables), with the checks that every f_i
    and e_i image is an element and that e_i kills the highest element.
    phi_i is read from eps_i and the weight; every operator is derived
    from the tables.
    """

    def __init__(self, rank: int, shape: Weight, elements: tuple[TableauRows, ...]):
        self.rank = rank
        self.shape = shape
        self.elements = elements
        # before the count of highest elements: the scan names a missing or repeated tableau
        self.weights, self._f, self._e, self._eps, self._si = _operator_tables(elements, rank)

        by_weight: dict[Weight, list[int]] = {}
        for x, mu in enumerate(self.weights):
            by_weight.setdefault(mu, []).append(x)
        self._by_weight = {mu: tuple(xs) for mu, xs in by_weight.items()}
        tops = self._by_weight.get(self.shape, ())
        if len(tops) != 1:
            raise CrystalStructureError(f"{len(tops)} elements of highest weight, expected one")
        self.highest = tops[0]
        if any(e_row[self.highest] is not None for e_row in self._e):
            raise CrystalStructureError("the highest-weight element is not killed by every e_i")

    # -- construction -------------------------------------------------

    @classmethod
    def generate(
        cls, shape: tuple[int, ...], rank: int, max_elements: int = DEFAULT_MAX_ELEMENTS
    ) -> "Crystal":
        """Enumerate the tableaux of B(lambda) and build its operator tables.

        Raises CrystalSizeError when the element count would exceed
        max_elements.
        """
        lam = normalize_shape(shape, rank)
        return cls(rank, lam, shape_tableaux(lam, rank, max_elements))

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
        """eps_i plus the pairing of the weight with the coroot of a_i."""
        mu = self.weights[x]
        return self._eps[i - 1][x] + mu[i - 1] - mu[i]

    def elements_of_weight(self, mu: Weight) -> tuple[int, ...]:
        return self._by_weight.get(tuple(mu), ())

    # -- Weyl action ----------------------------------------------------

    def si(self, i: int, x: int) -> int:
        """The simple reflection s_i, reversing the i-string through x."""
        return self._si[i - 1][x]

    def si_row(self, i: int) -> tuple[int, ...]:
        """s_i of every element, indexed by id."""
        return self._si[i - 1]

    # -- modified operators f_a = w f_k w^{-1} ---------------------------

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

    # -- conjugation by words in the s_i ------------------------------------

    @cached_property
    def _weyl_rows(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return {(): tuple(range(self.size))}

    def weyl_row(self, word: tuple[int, ...]) -> tuple[int, ...]:
        """The crystal permutation of s_(i_1) ... s_(i_r) for word = (i_1, ..., i_r), indexed by id.

        Each row is the s_(i_1) row read at the row of the rest of the
        word, kept per crystal, so words sharing a suffix compose it once.
        """
        rows = self._weyl_rows
        if word not in rows:
            rows[word] = tuple(map(self._si[word[0] - 1].__getitem__, self.weyl_row(word[1:])))
        return rows[word]

    def conjugate(self, direction: str, k: int, word: tuple[int, ...]) -> list[Optional[int]]:
        """u f_k u^{-1} (resp. e_k) of every element, u = s_(i_1) ... s_(i_r) for word = (i_1, ..., i_r).

        None where f_k (resp. e_k) vanishes.  u^{-1} applies s_(i_1)
        first and u applies it last, each as one row.
        """
        if direction not in ("f", "e"):
            raise ValueError(f"unknown operator direction {direction!r}")
        row = (self._f if direction == "f" else self._e)[k - 1]
        back = self.weyl_row(word)
        return [None if y is None else back[y] for y in map(row.__getitem__, self.weyl_row(word[::-1]))]

    @cached_property
    def tilde_rows(self) -> dict[Root, list[Optional[int]]]:
        """u f_n u^{-1} of every element for each positive root beta, u the order-preserving conjugator.

        The order-preserving u with u(a_n) = beta is the first that
        conjugators() yields; built on first use.
        """
        n = self.rank
        return {beta: self.conjugate("f", n, reduced_word(next(conjugators(n, beta)))) for beta in positive_roots(n)}

    @cached_property
    def gamma_summands(self) -> tuple[int, ...]:
        """sum over i of i * min(eps_i, phi_i) for every element, indexed by id.

        The summand of the Weyl-averaged statistic; built on first use.
        """
        sums = [0] * self.size
        for i, eps_row in enumerate(self._eps, start=1):
            sums = [s + i * min(eps, eps + mu[i - 1] - mu[i]) for s, eps, mu in zip(sums, eps_row, self.weights)]
        return tuple(sums)

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
) -> tuple[tuple[Weight, ...], OperatorTable, OperatorTable, IntTable, IntTable]:
    """The weights and the f_i, e_i, eps_i and s_i tables.

    One scan of each reading word finds the weights and f_i and eps_i
    (_signature_rows); the rest follows from the crystal axioms.  e_i
    inverts f_i, so every element with eps_i > 0 needs an f_i preimage,
    or its e_i image is not an element.  s_i walks wt_i - wt_{i+1} (=
    phi_i - eps_i) steps along the finished f_i row, or as many back
    along e_i.  Each row becomes a tuple as soon as its s_i row is done,
    so a list and its tuple copy coexist for one row at a time.
    """
    weights, f_table, eps_table, ids = _signature_rows(elements, rank)
    e_table, si_table = [], []
    for j in range(rank):
        e_row = [None] * len(ids)
        for x, y in zip(ids, f_table[j]):
            if y is not None:
                e_row[y] = x
        # f_i raises eps_i by one and has one preimage at most, so equal counts mean equal supports
        if e_row.count(None) != eps_table[j].count(0):
            images = [set(row) for row in f_table]
            x, i = next((x, i) for x in ids for i in range(rank) if eps_table[i][x] and x not in images[i])
            raise CrystalStructureError(f"e_{i + 1} of {elements[x]} is not an element")
        si_table.append(tuple(_string_reversals(f_table[j], e_row, weights, j, ids)))
        e_table.append(tuple(e_row))
        f_table[j], eps_table[j] = tuple(f_table[j]), tuple(eps_table[j])
    return weights, tuple(f_table), tuple(e_table), tuple(eps_table), tuple(si_table)


def _signature_rows(
    elements: tuple[TableauRows, ...], rank: int
) -> tuple[tuple[Weight, ...], list, list, tuple[int, ...]]:
    """The weights, the f_i and eps_i rows as lists, and the ids they hold.

    A letter v plays two parts in the scan: for i = v-1 it is an i+1
    letter and goes on that index's stack, for i = v it is an i letter
    and cancels the top of that stack, or else stays unmatched.  At the
    end, for every i at once, the stack holds the eps_i unmatched i+1
    letters, and the last unmatched i letter is where f_i acts.  The
    letter counts give the weight, one shared tuple per distinct weight.

    Each element is keyed by its reading word packed into an int, one
    digit of whole bytes per position.  The digits are wide enough for
    the letter rank+1, so f_i does not carry into the next digit: its
    image is the key plus that digit's unit.  Every image must be an
    element.
    """
    size = len(elements)
    # whole bytes per digit, enough for the letter rank+1; the first letter read is the lowest digit
    digit_bytes = ((rank + 1).bit_length() + 7) // 8
    width = 8 * digit_bytes
    letter = [v.to_bytes(digit_bytes, "little") for v in range(rank + 2)].__getitem__
    index = {
        int.from_bytes(b"".join(map(letter, reading_word(rows))), "little"): x
        for x, rows in enumerate(elements)
    }
    if len(index) != size:
        raise CrystalStructureError(f"{size - len(index)} repeated tableaux")

    f_table = [[None] * size for _ in range(rank)]
    eps_table = [[0] * size for _ in range(rank)]
    by_index = tuple(zip(range(1, rank + 1), f_table, eps_table))
    shared: dict[Weight, Weight] = {}
    weights = []
    blank, unset = [0] * (rank + 2), [-1] * (rank + 2)
    for (key, x), rows in zip(index.items(), elements):
        # per index i: the unmatched i+1 letters on the stack and the shift of the
        # last unmatched i letter's digit; per letter v, its count at v-1
        stack, last, counts = blank[:], unset[:], blank[:]
        shift = 0
        for row in reversed(rows):
            for v in row:
                counts[v - 1] += 1
                stack[v - 1] += 1
                if stack[v]:
                    stack[v] -= 1
                else:
                    last[v] = shift
                shift += width
        mu = tuple(counts[: rank + 1])
        weights.append(shared.setdefault(mu, mu))
        for i, f_row, eps_row in by_index:
            if last[i] >= 0:
                y = f_row[x] = index.get(key + (1 << last[i]))
                if y is None:
                    raise CrystalStructureError(f"f_{i} of {rows} is not an element")
            eps_row[x] = stack[i]
    # the id objects of the f rows, so that the e rows and the fixed points of s_i share them
    return tuple(weights), f_table, eps_table, tuple(index.values())


def _string_reversals(
    f_row: list, e_row: list, weights: tuple[Weight, ...], j: int, ids: tuple[int, ...]
) -> Iterator[int]:
    """s_i of each id, i = j+1: wt_i - wt_{i+1} steps of f_i, or as many of e_i when negative."""
    for x, mu in zip(ids, weights):
        m = mu[j] - mu[j + 1]
        walk = f_row if m >= 0 else e_row
        y = x
        for _ in range(abs(m)):
            y = walk[y]
        yield y
