"""
Charge statistics and Kostka-Foulkes polynomials.

The headline statistic is

    charge(x) = Z(x) - (1/2) * length(wt(x)),

with Z the atomic number; on dominant-weight elements it is a
nonnegative integer and generates the Kostka-Foulkes polynomial

    K_{lambda,mu}(q) = sum over elements of weight mu of q^charge.

kostka's "new" route evaluates it on the reading words of the tableaux
of content mu, with eps_k and s_k taken on the word, and builds no
crystal.  Two independent classical oracles are provided:
the word charge (standard-subword extraction and the index rule on
reading words, no crystal operators) and the Weyl-averaged statistic

    gamma_n(x) = 1/(n+1)! * sum over sigma in W, i in 1..n
                 of i * min(eps_i(sigma x), phi_i(sigma x)),

computed for every element at once, by gathers of the s_i rows.

Between the endpoints sits the stagewise recharge
r_m(x) = Z(x) - Arr_m(x), where the arrow count is taken in the twisted
Bruhat graph over the highest weight of x's atom; wall crossings are
realized by swapping functions built from powers of raising operators.

All arithmetic is exact and in integers: Z, charge, recharge and the
Hecke exponents are half-integers, kept doubled as ints, and polynomials
store integer coefficients keyed by doubled exponents.
"""

from __future__ import annotations

from collections import Counter
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
from .atoms import AtomDecomposition, atomic_number
from .crystal import (
    DEFAULT_MAX_ELEMENTS,
    Crystal,
    TableauRows,
    capped_dimension,
    reading_word,
    tableaux_of_content,
    unmatched_letters,
)
from .root_data import (
    LineOrder,
    Weight,
    bruhat_leq_dominant,
    is_dominant,
    length,
    line_order,
    rho_doubled,
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


def charge(crystal: Crystal, x: int) -> int:
    """Z(x) minus half the Bruhat length of the weight, doubled.

    Defined on the whole crystal as a half-integer; on elements of
    dominant weight it is a nonnegative integer equal to the sum of eps
    over all positive roots, so the doubled value is even.
    """
    return atomic_number(crystal, x) - length(crystal.weight(x))


def word_eps_sum(word: Sequence[int], rank: int) -> int:
    """Z - <wt, rho^v> on a word w: eps_k(s_{k-1} ... s_j w) summed over j <= k, one s_k walk per j."""
    total = 0
    for j in range(1, rank + 1):
        y = list(word)
        for k in range(j, rank + 1):
            lo, hi = unmatched_letters(y, k)
            total += len(hi)
            if k < rank:
                # s_k: the run's first eps positions read k, the rest k+1
                for q, p in enumerate(lo + hi):
                    y[p] = k if q < len(hi) else k + 1
    return total


def recharge(
    crystal: Crystal,
    decomposition: AtomDecomposition,
    x: int,
    stage: Stage,
    graph: Optional[TwistedGraph] = None,
) -> int:
    """Z(x) minus the in-degree of wt(x) in the stage graph of x's atom, doubled.

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
    return atom.z_doubled - 2 * graph.arr(crystal.weight(x))


def recharge_table(
    crystal: Crystal,
    decomposition: AtomDecomposition,
    stage: Stage,
) -> tuple[int, ...]:
    """The doubled recharge values of all elements, indexed by id.

    One interval graph over the crystal's highest weight is built; the
    stage graph of each atom is a view of its restriction to the atom's
    highest weight.
    """
    interval = interval_graph(crystal.shape)
    views: dict[Weight, TwistedGraph] = {}
    values = []
    for x in range(crystal.size):
        highest = decomposition.atom_of(x).highest_weight
        if highest not in views:
            views[highest] = interval.restrict(highest).at(stage)
        values.append(recharge(crystal, decomposition, x, stage, views[highest]))
    return tuple(values)


# -- classical word charge (first oracle) ------------------------------------


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


def llt_gamma_raw(crystal: Crystal) -> tuple[int, ...]:
    """The unnormalized double sum over the full Weyl group, of every element, indexed by id.

    S_(k+1) is the disjoint union of the cosets S_k s_k ... s_j for j =
    k+1 (the empty product), k, ..., 1.  So the orbit sums over S_(k+1)
    are the sums over S_k read at s_k ... s_j x, s_j applied first: one
    gather by the s_j row per coset, n(n+1)/2 in all, starting from the
    crystal's per-element summand, the inner sum over i.
    """
    sums = list(crystal.gamma_summands)
    for k in range(1, crystal.rank + 1):
        cosets = [sums]
        for j in range(k, 0, -1):
            cosets.append(list(map(cosets[-1].__getitem__, crystal.si_row(j))))
        sums = list(map(sum, zip(*cosets)))
    return tuple(sums)


def llt_gamma(crystal: Crystal) -> tuple[int, ...]:
    """The Weyl-averaged statistic of every element, indexed by id; each raw sum must divide by (n+1)!."""
    order = factorial(crystal.rank + 1)
    gammas = []
    for x, raw in enumerate(llt_gamma_raw(crystal)):
        quotient, remainder = divmod(raw, order)
        if remainder:
            raise ArithmeticError(f"raw gamma sum {raw} for element {x} is not divisible by {order}")
        gammas.append(quotient)
    return tuple(gammas)


# -- Kostka-Foulkes polynomials ------------------------------------------------


def kostka_weight(mu: Weight, lam: Weight) -> Weight:
    """mu padded with zeros to the length of lambda; ValueError unless it fits, is dominant and lies below.

    Needs only the shape, so kostka checks mu before it lists a tableau.
    """
    mu = tuple(mu)
    if len(mu) > len(lam):
        raise ValueError(
            f"mu = {mu} has {len(mu)} coordinates; at most {len(lam)} allowed at rank {len(lam) - 1}"
        )
    mu += (0,) * (len(lam) - len(mu))
    if not is_dominant(mu):
        raise ValueError(f"mu = {mu} is not dominant")
    if not bruhat_leq_dominant(mu, lam):
        raise ValueError(f"mu = {mu} is not below lambda = {lam}")
    return mu


def kostka(
    shape: Weight, mu: Weight, method: str = "new", max_elements: int = DEFAULT_MAX_ELEMENTS
) -> HalfLaurentPolynomial:
    """K_{lambda,mu}(q) for a normalized shape lambda, by one of four routes.

    "new" sums q^charge, read on reading words, "ls" scores reading words,
    "count" returns the constant bare multiplicity: these three list the
    tableaux of content mu and build no crystal.  "llt" averages over the
    Weyl group, on B(lambda).  The rank is len(lambda) - 1, and mu is
    padded with zeros to that length.  The size of B(lambda) is checked
    against max_elements, then mu, before any tableau is listed.
    """
    if method not in KOSTKA_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {KOSTKA_METHODS}")
    rank = len(shape) - 1
    # capped_dimension rejects a shape that is not a partition
    capped_dimension(shape, rank, max_elements)
    mu = kostka_weight(mu, shape)
    if method != "llt":
        return kostka_of_tableaux(tableaux_of_content(shape, mu), mu, method)
    crystal = Crystal.generate(shape, rank, max_elements)
    gammas = llt_gamma(crystal)
    return HalfLaurentPolynomial(Counter(2 * gammas[x] for x in crystal.elements_of_weight(mu)))


def kostka_of_tableaux(tableaux: Sequence[TableauRows], mu: Weight, method: str) -> HalfLaurentPolynomial:
    """The sum of q^charge over tableaux of content mu, by the "new", "ls" or "count" route.

    Charges are kept doubled, one coefficient per doubled exponent.  A
    "new" charge that is odd when doubled, or negative, raises
    ArithmeticError.
    """
    if method == "count":
        return HalfLaurentPolynomial({0: len(tableaux)})
    rank = len(mu) - 1
    counts: Counter[int] = Counter()
    for rows in tableaux:
        word = reading_word(rows)
        if method == "ls":
            doubled = 2 * ls_word_charge(word)
        else:
            # 2 charge = rho_doubled(mu) - length(mu) + 2 eps sum, and the first two agree for a dominant mu
            doubled = 2 * word_eps_sum(word, rank)
            if doubled % 2 or doubled < 0:
                raise ArithmeticError(
                    f"doubled charge {doubled} of dominant-weight tableau {rows} is not even and nonnegative"
                )
        counts[doubled] += 1
    return HalfLaurentPolynomial(counts)


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
    power = coroot.shift(mu)
    if line_order(mu, coroot.root, power) is not LineOrder.GREATER:
        raise ValueError(f"{mu} is not strictly below its reflection {tmu}")
    if crystal.weight(x) != tmu:
        raise ValueError(f"element {x} has weight {crystal.weight(x)}, expected {tmu}")
    atom = decomposition.atom_of(x)
    if not bruhat_leq_dominant(tmu, atom.highest_weight):
        raise ValueError(
            f"{tmu} is not below the atom highest weight {atom.highest_weight}"
        )
    image = crystal.root_op_power("e", coroot.root, x, power)
    if image is None:
        raise SwappingError(
            f"raising power {power} along {coroot.root} vanished on element {x}"
        )
    return image


# -- atomic Hecke expansion ------------------------------------------------------


def hecke_atomic_expansion(decomposition: AtomDecomposition) -> dict[Weight, HalfLaurentPolynomial]:
    """The coefficients a_{mu,lambda}(v) on the atomic basis, keyed by dominant mu in the atoms' order.

    Atoms are grouped by highest weight; each adds v^(2(Z - <mu,rho^v>)), Z - <mu,rho^v> a nonnegative integer.
    """
    coeffs: dict[Weight, HalfLaurentPolynomial] = {}
    for atom in decomposition.atoms:
        doubled = atom.z_doubled - rho_doubled(atom.highest_weight)
        if doubled % 2 or doubled < 0:
            raise ArithmeticError(f"doubled atom exponent {doubled} is not even and nonnegative")
        term = HalfLaurentPolynomial({2 * doubled: 1})
        previous = coeffs.get(atom.highest_weight, HalfLaurentPolynomial.zero())
        coeffs[atom.highest_weight] = previous + term
    return coeffs


def kostka_from_hecke(coeffs: dict[Weight, HalfLaurentPolynomial], nu: Weight) -> HalfLaurentPolynomial:
    """Reconstruct K_{lambda,nu}(v^2) from the atomic expansion's coefficients.

    Uses the change of basis where each atomic generator spreads as
    v^(2<mu - nu, rho^v>) over the dominant nu below mu.
    """
    nu = tuple(nu)
    total = HalfLaurentPolynomial.zero()
    for mu, coefficient in coeffs.items():
        if bruhat_leq_dominant(nu, mu):
            height = rho_doubled(mu) - rho_doubled(nu)
            total += coefficient * HalfLaurentPolynomial({2 * height: 1})
    return total
