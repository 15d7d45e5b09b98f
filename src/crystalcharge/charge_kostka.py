"""
Charge statistics and Kostka-Foulkes polynomials.

The headline statistic is

    charge(x) = Z(x) - (1/2) * length(wt(x)),

with Z the atomic number; on dominant-weight elements it is a
nonnegative integer and generates the Kostka-Foulkes polynomial

    K_{lambda,mu}(q) = sum over elements of weight mu of q^charge.

Two independent classical oracles are provided: the word charge
(computed from reading words alone by standard-subword extraction and
the index rule, no crystal operators) and the Weyl-averaged statistic

    gamma_n(x) = 1/(n+1)! * sum over sigma in W, i in 1..n
                 of i * min(eps_i(sigma x), phi_i(sigma x)).

Between the endpoints sits the stagewise recharge
r_m(x) = Z(x) - Arr_m(x), where the arrow count is taken in the twisted
Bruhat graph over the highest weight of x's atom; wall crossings are
realized by swapping functions built from powers of raising operators.

All arithmetic is exact: half-integers are fractions, polynomials store
integer coefficients keyed by doubled exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Optional, Sequence

from .affine_graph import (
    Stage,
    TwistedGraph,
    apply_affine_reflection,
    build_graph,
    interval_graph,
    stage_reflection,
)
from .atoms import AtomDecomposition, atomic_number, decompose
from .crystal import Crystal, TableauRows
from .root_data import (
    LineOrder,
    Weight,
    bruhat_leq_dominant,
    is_dominant,
    length,
    line_compare,
    pairing,
    rho_pairing,
)

KOSTKA_METHODS = ("new", "ls", "llt", "count")


class HalfLaurentPolynomial:
    """A Laurent polynomial with integer coefficients and exponents in (1/2)Z.

    Exponents are stored doubled, so every key is an integer; no zero
    coefficients are kept.  Instances are immutable value objects.
    """

    __slots__ = ("_terms",)

    def __init__(self, doubled_terms: Optional[dict[int, int]] = None):
        terms = {}
        for exp, coeff in (doubled_terms or {}).items():
            if not isinstance(exp, int) or not isinstance(coeff, int):
                raise TypeError("doubled exponents and coefficients must be integers")
            if coeff:
                terms[exp] = coeff
        self._terms = terms

    @classmethod
    def zero(cls) -> "HalfLaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "HalfLaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int | Fraction, coeff: int = 1) -> "HalfLaurentPolynomial":
        doubled = 2 * Fraction(exponent)
        if doubled.denominator != 1:
            raise ValueError(f"exponent {exponent} is not a half-integer")
        return cls({int(doubled): coeff})

    def doubled_items(self) -> tuple[tuple[int, int], ...]:
        """(doubled exponent, coefficient) pairs in decreasing exponent order."""
        return tuple(sorted(self._terms.items(), reverse=True))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfLaurentPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "HalfLaurentPolynomial") -> "HalfLaurentPolynomial":
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            terms[exp] = terms.get(exp, 0) + coeff
        return HalfLaurentPolynomial(terms)

    def __mul__(self, other: "HalfLaurentPolynomial") -> "HalfLaurentPolynomial":
        terms: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
        return HalfLaurentPolynomial(terms)

    def evaluate_at_one(self) -> int:
        return sum(self._terms.values())

    def scale_exponents(self, factor: int) -> "HalfLaurentPolynomial":
        """Substitute q -> q^factor."""
        return HalfLaurentPolynomial({exp * factor: coeff for exp, coeff in self._terms.items()})

    def coefficients_nonnegative(self) -> bool:
        return all(coeff >= 0 for coeff in self._terms.values())

    def text(self, variable: str = "q") -> str:
        """Render terms in decreasing exponent order; the zero polynomial is "0".

        >>> HalfLaurentPolynomial({4: 1, 2: 1}).text()
        'q^2 + q'
        >>> HalfLaurentPolynomial({5: 3, 0: -2}).text()
        '3q^(5/2) - 2'
        """
        if not self._terms:
            return "0"
        pieces = []
        for exp, coeff in self.doubled_items():
            if exp == 0:
                body = ""
            elif exp == 2:
                body = variable
            elif exp % 2 == 0:
                half = exp // 2
                body = f"{variable}^{half}" if half > 0 else f"{variable}^({half})"
            else:
                body = f"{variable}^({exp}/2)"
            magnitude = abs(coeff)
            if body and magnitude == 1:
                piece = body
            elif body:
                piece = f"{magnitude}{body}"
            else:
                piece = str(magnitude)
            pieces.append((coeff < 0, piece))
        first_negative, first_piece = pieces[0]
        out = ("-" if first_negative else "") + first_piece
        for negative, piece in pieces[1:]:
            out += (" - " if negative else " + ") + piece
        return out

    def __repr__(self) -> str:
        return f"HalfLaurentPolynomial({self._terms!r})"

    def to_json_dict(self) -> dict[str, int]:
        return {str(exp): coeff for exp, coeff in self.doubled_items()}


# -- the new charge statistic ------------------------------------------------


def charge(crystal: Crystal, x: int) -> Fraction:
    """Z(x) minus half the Bruhat length of the weight.

    Defined on the whole crystal as an exact half-integer; on elements
    of dominant weight it is a nonnegative integer equal to the sum of
    eps over all positive roots.
    """
    return atomic_number(crystal, x) - Fraction(length(crystal.weight(x)), 2)


@dataclass(frozen=True)
class RechargeTable:
    """Recharge values Z - Arr_stage for every element of a crystal."""

    stage: Stage
    values: dict[int, Fraction]


def recharge(
    crystal: Crystal,
    decomposition: AtomDecomposition,
    x: int,
    stage: Stage,
    graph: Optional[TwistedGraph] = None,
) -> Fraction:
    """Z(x) minus the in-degree of wt(x) in the stage graph of x's atom.

    Z is read from x's atom, on which it is constant.  graph, when
    given, must be that graph: the stage view over the highest weight
    of x's atom.
    """
    atom = decomposition.atom_of(x)
    highest = atom.highest_weight
    if graph is None:
        graph = build_graph(highest, stage)
    elif (graph.base, graph.stage, type(graph.stage)) != (highest, stage, type(stage)):
        raise ValueError(f"graph at stage {graph.stage} over {graph.base} is not x's stage-{stage} graph")
    return atom.z - graph.arr(crystal.weight(x))


def recharge_table(
    crystal: Crystal,
    decomposition: AtomDecomposition,
    stage: Stage,
) -> RechargeTable:
    """Recharge values for all elements.

    One interval graph over the crystal's highest weight is built; the
    stage graph of each atom is a view of its restriction to the atom's
    highest weight.
    """
    interval = interval_graph(crystal.shape)
    views: dict[Weight, TwistedGraph] = {}
    values = {}
    for x in range(crystal.size):
        highest = decomposition.atom_of(x).highest_weight
        if highest not in views:
            views[highest] = interval.restrict(highest).at(stage)
        values[x] = recharge(crystal, decomposition, x, stage, views[highest])
    return RechargeTable(stage, values)


# -- classical word charge (first oracle) ------------------------------------


def reading_word(rows: TableauRows) -> tuple[int, ...]:
    """Rows bottom to top, each row left to right."""
    return tuple(v for r in range(len(rows) - 1, -1, -1) for v in rows[r])


def _word_content(word: Sequence[int]) -> list[int]:
    if not word:
        return []
    top = max(word)
    counts = [0] * top
    for v in word:
        if v < 1:
            raise ValueError(f"letters must be positive, got {v}")
        counts[v - 1] += 1
    return counts


def ls_word_charge(word: Iterable[int]) -> int:
    """Classical charge of a word whose content is a partition.

    Standard subwords are extracted by scanning right to left
    cyclically: pick the first 1, from there the first 2, and so on up
    to the number of nonzero parts of the current content; extracted
    letters are removed and the process repeats.  A standard word is
    scored by the index rule: index(1) = 0 and index(r+1) is index(r)+1
    when r+1 sits to the right of r, else index(r).

    >>> ls_word_charge((3, 1, 2))
    2
    >>> ls_word_charge((2, 1, 3))
    1
    """
    word = tuple(word)
    counts = _word_content(word)
    if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)) or (
        counts and counts[-1] == 0
    ):
        raise ValueError(f"content {counts} of word {word} is not a partition")

    active = list(range(len(word)))
    total = 0
    while active:
        top = max(word[i] for i in active)
        picked: list[int] = []
        cursor = len(active) - 1
        for target in range(1, top + 1):
            found = None
            for step in range(len(active)):
                j = (cursor - step) % len(active)
                if active[j] not in picked and word[active[j]] == target:
                    found = j
                    break
            if found is None:
                raise ValueError(f"letter {target} missing during extraction from {word}")
            picked.append(active[found])
            cursor = found - 1
        position_of = {word[i]: i for i in picked}
        index = 0
        for r in range(2, top + 1):
            if position_of[r] > position_of[r - 1]:
                index += 1
            total += index
        active = [i for i in active if i not in picked]
    return total


# -- Weyl-averaged charge (second oracle) -------------------------------------


def llt_gamma_raw(crystal: Crystal, x: int) -> int:
    """The unnormalized double sum over the full Weyl group.

    Walks the orbit of x once, one s_i step per group element: S_(k+1)
    is the disjoint union of the cosets s_j ... s_k S_k for j = k+1
    (the empty product), k, ..., 1.
    """
    n = crystal.rank
    orbit = [x]
    for k in range(1, n + 1):
        for y in orbit[:]:
            for i in range(k, 0, -1):
                y = crystal.si(i, y)
                orbit.append(y)
    return sum(i * min(crystal.eps(i, y), crystal.phi(i, y)) for y in orbit for i in range(1, n + 1))


def llt_gamma(crystal: Crystal, x: int) -> int:
    """The Weyl-averaged statistic; the raw sum must divide by (n+1)!."""
    raw = llt_gamma_raw(crystal, x)
    order = factorial(crystal.rank + 1)
    quotient, remainder = divmod(raw, order)
    if remainder:
        raise ArithmeticError(
            f"raw gamma sum {raw} for element {x} is not divisible by {order}"
        )
    return quotient


# -- Kostka-Foulkes polynomials ------------------------------------------------


def kostka(crystal: Crystal, mu: Weight, method: str = "new") -> HalfLaurentPolynomial:
    """K_{lambda,mu}(q) over the crystal B(lambda), by one of four routes.

    "new" sums q^charge, "ls" scores reading words, "llt" averages over
    the Weyl group, "count" returns the constant bare multiplicity.  mu
    is padded with zeros to the length of lambda.
    """
    if method not in KOSTKA_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {KOSTKA_METHODS}")
    lam = crystal.shape
    mu = tuple(mu)
    mu += (0,) * (len(lam) - len(mu))
    if not is_dominant(mu):
        raise ValueError(f"mu = {mu} is not dominant")
    if not bruhat_leq_dominant(mu, lam):
        raise ValueError(f"mu = {mu} is not below lambda = {lam}")
    elements = crystal.elements_of_weight(mu)
    if method == "count":
        return HalfLaurentPolynomial.monomial(0, len(elements))
    result = HalfLaurentPolynomial.zero()
    for x in elements:
        if method == "new":
            value = charge(crystal, x)
            if value.denominator != 1 or value < 0:
                raise ArithmeticError(
                    f"charge {value} of dominant-weight element {x} is not a nonnegative integer"
                )
        elif method == "ls":
            value = ls_word_charge(reading_word(crystal.elements[x]))
        else:
            value = llt_gamma(crystal, x)
        result += HalfLaurentPolynomial.monomial(value)
    return result


# -- swapping functions ---------------------------------------------------------


class SwappingError(RuntimeError):
    """The raising-operator power vanished where the theory forbids it."""


def swapping_map(
    crystal: Crystal,
    decomposition: AtomDecomposition,
    m: int,
    mu: Weight,
    x: int,
) -> int:
    """The wall-crossing injection for stage m at weight mu.

    With c*delta - beta^v the (m+1)-th reversal coroot and t its
    reflection, maps the weight-t(mu) element x to
    e_beta^(<mu,beta^v> + c)(x): the image has weight mu, stays in the
    atom of x, and drops the stage-(m+1) recharge by exactly one.
    """
    coroot = stage_reflection(m + 1, crystal.rank)
    mu = tuple(mu)
    tmu = apply_affine_reflection(coroot, mu)
    if line_compare(mu, tmu) is not LineOrder.GREATER:
        raise ValueError(f"{mu} is not strictly below its reflection {tmu}")
    if crystal.weight(x) != tmu:
        raise ValueError(f"element {x} has weight {crystal.weight(x)}, expected {tmu}")
    atom = decomposition.atom_of(x)
    if not bruhat_leq_dominant(tmu, atom.highest_weight):
        raise ValueError(
            f"{tmu} is not below the atom highest weight {atom.highest_weight}"
        )
    power = pairing(mu, coroot.root) + coroot.level
    image = crystal.root_op_power("e", coroot.root, x, power)
    if image is None:
        raise SwappingError(
            f"raising power {power} along {coroot.root} vanished on element {x}"
        )
    return image


# -- atomic Hecke expansion ------------------------------------------------------


@dataclass(frozen=True)
class HeckeExpansion:
    """Coefficients a_{mu,lambda}(v) on the atomic basis, keyed by dominant mu."""

    shape: Weight
    coeffs: dict[Weight, HalfLaurentPolynomial]


def hecke_atomic_expansion(
    crystal: Crystal, decomposition: Optional[AtomDecomposition] = None
) -> HeckeExpansion:
    """Group atoms by highest weight; each contributes v^(2(Z - <mu,rho^v>))."""
    dec = decomposition if decomposition is not None else decompose(crystal)
    coeffs: dict[Weight, HalfLaurentPolynomial] = {}
    for atom in dec.atoms:
        exponent = atom.z - rho_pairing(atom.highest_weight)
        if exponent.denominator != 1 or exponent < 0:
            raise ArithmeticError(f"atom exponent {exponent} is not a nonnegative integer")
        term = HalfLaurentPolynomial.monomial(2 * int(exponent))
        previous = coeffs.get(atom.highest_weight, HalfLaurentPolynomial.zero())
        coeffs[atom.highest_weight] = previous + term
    return HeckeExpansion(crystal.shape, coeffs)


def kostka_from_hecke(expansion: HeckeExpansion, nu: Weight) -> HalfLaurentPolynomial:
    """Reconstruct K_{lambda,nu}(v^2) from the atomic expansion.

    Uses the change of basis where each atomic generator spreads as
    v^(2<mu - nu, rho^v>) over the dominant nu below mu.
    """
    nu = tuple(nu)
    total = HalfLaurentPolynomial.zero()
    for mu, coefficient in expansion.coeffs.items():
        if bruhat_leq_dominant(nu, mu):
            height = rho_pairing(mu) - rho_pairing(nu)
            if height.denominator != 1:
                raise ArithmeticError(f"height {height} from {nu} to {mu} is not an integer")
            total += coefficient * HalfLaurentPolynomial.monomial(2 * int(height))
    return total
