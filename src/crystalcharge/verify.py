"""
Property sweeps over families of crystals and weight intervals.

Each suite enumerates the shapes with at most rank+1 parts and total
size up to a bound, then checks its invariants, recording failures as
data instead of raising.  Every case belongs to a check family, a short
fixed name such as "new=ls", "constant-z" or "edge-labels"; the one
report type, VerifyReport, counts the cases of each family and tags each
failure with its family.  Suites:

    oracles   Kostka-Foulkes agreement across all computation routes
    atoms     decomposition soundness, Z-constancy, operator closure
    strings   crystal-operator lemmas (pairing identity, string sums,
              conjugation-choice independence, commutation)
    arrows    in-degree identities of twisted graphs (length at stage
              0, closed form at infinity, labels, update rule)
    gammam    the in-degree difference across each reversed wall
    swapping  wall-crossing injections and stagewise recharge deltas
    hecke     reconstruction of Kostka polynomials from the atomic
              expansion

One driver walks the sweep once: for each shape it runs every requested
suite, in SUITES order, on one _Shape.  A suite that reads the shape's
crystal or its decomposition builds it on first read, and the shapes
of one run share the stage views of each interval and the wall tables
of each I((k,0,...,0)).  Views and walls are read by vertex id.  Each
affine reflection t is an involution, t(t mu) = mu: so a wall table
holds only its pairs (mu, t mu), and edge-labels counts an interval's
edges once, for every stage view.

The crystal is read by rows, indexed by element id, through its one
conjugation routine.  A family that needs f_beta = w f_k w^{-1}, a root
string or a conjugator's operator on every element reads the crystal
permutation of each word (Crystal.weyl_row, composed once per crystal)
and the f_k or e_k row gathered between w^{-1} and w
(Crystal.conjugate); w^{-1} = s_(k-1) ... s_j applies s_j first, and no
permutation is inverted.  commutation reads the tilde rows, one f_n
row per root (Crystal.tilde_rows).  The stabilization family reads the
wall tables, never the edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial
from operator import add, ne, sub
from typing import Iterator, Sequence

from .affine_graph import (
    STAGE_INFINITY,
    IntervalGraph,
    TwistedGraph,
    apply_affine_reflection,
    arr_infinity_formula,
    build_interval,
    interval_graph,
    stage_reflection,
)
from .atoms import Atom, AtomDecomposition, atomic_number, bplus_components, decompose
from .charge_kostka import (
    HalfLaurentPolynomial,
    SwappingError,
    charge,
    hecke_atomic_expansion,
    kostka_from_hecke,
    kostka_of_tableaux,
    llt_gamma_raw,
    recharge,
    swapping_map,
)
from .crystal import DEFAULT_MAX_ELEMENTS, Crystal, conjugators, normalize_shape
from .root_data import (
    LineOrder,
    Weight,
    dominant_interval,
    format_weight,
    in_parabolic,
    is_dominant,
    length,
    length_along,
    line_order,
    pairing,
    partitions,
    positive_roots,
    reduced_word,
)

SUITES = ("oracles", "atoms", "gammam", "arrows", "swapping", "strings", "hecke", "all")


@dataclass(frozen=True)
class VerifyFailure:
    check: str
    case: str
    expected: str
    actual: str


@dataclass
class VerifyReport:
    """Cases counted per check family, and every failed case."""

    suite: str
    counts: dict[str, int] = field(default_factory=dict)
    failures: list[VerifyFailure] = field(default_factory=list)

    def record(self, check: str, ok: bool, case: str, expected, actual) -> None:
        self.counts[check] = self.counts.get(check, 0) + 1
        if not ok:
            self.failures.append(VerifyFailure(check, case, str(expected), str(actual)))

    def tally(self, check: str, case: str, bad: int) -> None:
        """Record one case that counts its bad instances: it passes when there are none."""
        self.record(check, bad == 0, case, 0, bad)

    @property
    def cases(self) -> int:
        return sum(self.counts.values())

    @property
    def exit_status(self) -> int:
        return 0 if not self.failures else 1


def sweep_shapes(rank: int, max_weight: int) -> tuple[tuple[int, ...], ...]:
    """All shapes with at most rank+1 parts and size up to max_weight."""
    return tuple(
        shape
        for total in range(max_weight + 1)
        for shape in partitions(total, rank + 1)
    )


class _Shape:
    """One sweep shape, as every suite reads it: the crystal and its decomposition are built on first read.

    `case` is the prefix of the shape's case texts.  `cache` holds the
    stage views of each I(h), and `tables` the wall pairs of each
    (I((k,0,...,0)), stage); the shapes of one run share both.
    """

    def __init__(self, lam: Weight, rank: int, max_elements: int, cache: dict, tables: dict):
        self.lam, self.rank, self.max_elements, self.cache, self.tables = lam, rank, max_elements, cache, tables
        self.top = (sum(lam),) + (0,) * rank
        self.case = f"n={rank} lam={format_weight(lam)}"

    @cached_property
    def crystal(self) -> Crystal:
        return Crystal.generate(self.lam, self.rank, self.max_elements)

    @cached_property
    def decomposition(self) -> AtomDecomposition:
        return decompose(self.crystal)

    def views(self, h: Weight) -> list[TwistedGraph]:
        """The views of I(h) at stages 0..M, then at infinity, built once per run.

        I(h) is a restriction of the graph over I((k,0,...,0)), k = |h|, which is built once.
        """
        if h not in self.cache:
            interval = interval_graph(h) if h == self.top else self.views(self.top)[0].interval.restrict(h)
            stages = [interval.at(m) for m in range(interval.stabilization_stage + 1)]
            self.cache[h] = stages + [interval.at(STAGE_INFINITY)]
        return self.cache[h]

    def _wall_table(self, m: int) -> list[tuple[int, int]]:
        """The wall of t = stage_reflection(m+1) over I((k,0,...,0)), by id, built once per run.

        The pairs (mu, t mu) with t mu Bruhat-higher (line order +1) and in
        the interval, read from line_order and the reflection alone, never
        from the edges.  t is an involution, t(t mu) = mu, and the interval
        is closed below, so the ids with t mu lower are the pairs' second
        ids; t fixes the other ids or takes them out.
        """
        if (self.top, m) not in self.tables:
            interval = self.views(self.top)[0].interval
            t = stage_reflection(m + 1, self.rank)
            self.tables[self.top, m] = [
                (i, j)
                for i, mu in enumerate(interval.weights)
                if line_order(mu, t.root, t.shift(mu)) is LineOrder.GREATER
                and (j := interval.ids.get(apply_affine_reflection(t, mu))) is not None
            ]
        return self.tables[self.top, m]

    def pairs(self, mask: Sequence[bool], m: int) -> list[tuple[int, int]]:
        """The pairs (mu, t mu) of stage m's wall inside an interval's mask, closed below: t mu in it puts mu in it."""
        return [(i, j) for i, j in self._wall_table(m) if mask[j]]

    def walls(self, h: Weight) -> Iterator[tuple[TwistedGraph, TwistedGraph, list[int], list[tuple[int, int]]]]:
        """For each stage m < M of I(h): the views at m and m+1, and the wall between them, read by id.

        M is the stabilization stage.  The wall is stage m's table read
        through I(h)'s mask: the pairs (mu, t mu) with mu below t mu, both
        in I(h), and each id's predicted in-degree change when the edges
        labeled t reverse: +1 at mu, -1 at t mu, and 0 at every other id.
        """
        views = self.views(h)
        mask = views[-1].interval.mask
        for m in range(views[-1].interval.stabilization_stage):
            change = [0] * len(mask)
            pairs = self.pairs(mask, m)
            for i, j in pairs:
                change[i], change[j] = 1, -1
            yield views[m], views[m + 1], change, pairs


# -- suite: oracles -----------------------------------------------------------


def check_oracles(report: VerifyReport, shape: _Shape) -> None:
    lam, rank, c = shape.lam, shape.rank, shape.crystal
    one = HalfLaurentPolynomial.one()
    order = factorial(rank + 1)
    # the Weyl average of each element, None where the raw sum does not divide by (n+1)!
    quotients = (divmod(raw, order) for raw in llt_gamma_raw(c))
    gammas = [None if remainder else quotient for quotient, remainder in quotients]

    for mu in dominant_interval(lam):
        base = f"{shape.case} mu={format_weight(mu)}"
        elements = c.elements_of_weight(mu)
        tableaux = [c.elements[x] for x in elements]
        k_new = kostka_of_tableaux(tableaux, mu, "new")
        k_ls = kostka_of_tableaux(tableaux, mu, "ls")
        llt = [gammas[x] for x in elements]
        k_llt = None if None in llt else HalfLaurentPolynomial(Counter(2 * g for g in llt))
        count = kostka_of_tableaux(tableaux, mu, "count").evaluate_at_one()
        report.record("new=ls", k_new == k_ls, f"{base} new=ls", k_new.text(), k_ls.text())
        llt_text = "a gamma sum not divisible" if k_llt is None else k_llt.text()
        report.record("new=llt", k_new == k_llt, f"{base} new=llt", k_new.text(), llt_text)
        report.record(
            "q=1", k_new.evaluate_at_one() == count, f"{base} value at q=1", count, k_new.evaluate_at_one()
        )
        if mu == lam:
            report.record("K(lam,lam)=1", k_new == one, f"{base} K(lam,lam)=1", "1", k_new.text())

    report.tally("gamma-divisible", f"{shape.case} gamma sums divisible by (n+1)!", gammas.count(None))
    bad = sum(
        1
        for x, gamma in enumerate(gammas)
        if gamma is not None and is_dominant(c.weight(x)) and charge(c, x) != 2 * gamma
    )
    report.tally("charge=gamma", f"{shape.case} charge equals gamma on dominant elements", bad)


# -- suite: atoms -------------------------------------------------------------


def validate_atom(report: VerifyReport, atom: Atom, crystal: Crystal, interval: set[Weight], case: str) -> None:
    """Record the three defining properties of an atom, each as the case "<case> <check>".

    interval holds the weights of I(h), h the atom's highest weight.
    """
    weights = [crystal.weight(x) for x in atom.element_ids]
    repeated = len(weights) - len(set(weights))
    interval_ok = set(weights) == interval
    z_values = {atomic_number(crystal, x) for x in atom.element_ids}
    for check, ok, detail in (
        ("distinct-weights", repeated == 0, f"{repeated} repeated weights"),
        ("lower-interval", interval_ok, f"weights != interval below {atom.highest_weight}"),
        ("constant-z", z_values == {atom.z_doubled}, f"doubled Z values {sorted(z_values)} != {atom.z_doubled}"),
    ):
        report.record(check, ok, f"{case} {check}", "pass", detail)


def check_atoms(report: VerifyReport, shape: _Shape) -> None:
    lam, rank, c, dec, base = shape.lam, shape.rank, shape.crystal, shape.decomposition, shape.case

    covered = sorted(x for atom in dec.atoms for x in atom.element_ids)
    report.record(
        "partition",
        covered == list(range(c.size)),
        f"{base} atoms partition the crystal",
        f"{c.size} elements",
        f"{len(covered)} covered",
    )

    # I(h) of each atom; a weight lies below h exactly when it is in it
    intervals = [set(build_interval(atom.highest_weight)) for atom in dec.atoms]
    for idx, atom in enumerate(dec.atoms):
        validate_atom(report, atom, c, intervals[idx], f"{base} atom#{idx}")

    dominant_parts = sorted(
        tuple(x for x in atom.element_ids if is_dominant(c.weight(x)))
        for atom in dec.atoms
    )
    bplus_parts = sorted(bplus_components(c))
    report.record(
        "tilde-components",
        dominant_parts == bplus_parts,
        f"{base} tilde components match atom restriction",
        dominant_parts,
        bplus_parts,
    )

    for mu in dominant_interval(lam):
        holding = sum(mu in interval for interval in intervals)
        report.record(
            "multiplicity",
            holding == len(c.elements_of_weight(mu)),
            f"{base} multiplicity at mu={format_weight(mu)}",
            len(c.elements_of_weight(mu)),
            holding,
        )

    member_of = dec.member_of
    bad_closure = 0
    bad_iff = 0
    for j in range(1, rank + 1):
        # beta = (j, n): f_beta = w f_n w^{-1} with w = s_j ... s_(n-1), and e_beta likewise
        word = tuple(range(j, rank))
        for direction in ("f", "e"):
            images = c.conjugate(direction, rank, word)
            bad_closure += sum(1 for x, y in enumerate(images) if y is not None and member_of[y] != member_of[x])
        # f_beta^k = w f_n^k w^{-1}: conjugate once, then one f_n step per power
        for x, y in enumerate(c.weyl_row(word[::-1])):
            mu, interval = c.weight(x), intervals[member_of[x]]
            k = 1
            while True:
                y = c.f(rank, y)
                alive = y is not None
                shifted = (*mu[: j - 1], mu[j - 1] - k, *mu[j:rank], mu[rank] + k)
                inside = shifted in interval
                if alive != inside:
                    bad_iff += 1
                    break
                if not alive:
                    break
                k += 1
    report.tally("closure", f"{base} last-column operators preserve atoms", bad_closure)
    report.tally("lowering-depth", f"{base} lowering power matches interval depth", bad_iff)


# -- suite: strings ------------------------------------------------------------


def check_strings(report: VerifyReport, shape: _Shape) -> None:
    rank, c, base = shape.rank, shape.crystal, shape.case
    roots = positive_roots(rank)
    weights = c.weights

    # phi_beta - eps_beta is the weight pairing at w^{-1} x by definition, so this checks that s_i moves weights
    bad = 0
    for j, k in roots:
        for mu, nu in zip(weights, map(weights.__getitem__, c.weyl_row(tuple(range(k - 1, j - 1, -1))))):
            if nu[k - 1] - nu[k] != mu[j - 1] - mu[k]:
                bad += 1
    report.tally("pairing", f"{base} phi-eps pairing identity", bad)

    bad = 0
    for i in range(1, rank):
        # f_(i,i+1) = s_i f_(i+1) s_i
        for x, y in enumerate(c.conjugate("f", i + 1, (i,))):
            if y is None:
                continue
            if c.eps(i, x) + c.phi(i + 1, x) != c.eps(i, y) + c.phi(i + 1, y):
                bad += 1
    report.tally("string-sums", f"{base} eps_i + phi_(i+1) constant on strings", bad)

    if rank >= 3:
        bad = 0
        for beta in roots:
            first, *others = map(reduced_word, conjugators(rank, beta))
            # the order-preserving conjugator comes first; every other must give its operators
            expected = [c.conjugate(direction, rank, first) for direction in "fe"]
            for word in others:
                for direction, want in zip("fe", expected):
                    bad += sum(map(ne, c.conjugate(direction, rank, word), want))
        report.tally("conjugator-choice", f"{base} conjugator choice independence", bad)

    tilde = c.tilde_rows
    bad = 0
    for x in range(c.size):
        mu = c.weight(x)
        if not is_dominant(mu):
            continue
        for j in range(1, rank + 1):
            for k in range(j + 1, rank + 1):
                gamma = (j, k)
                for split in range(j, k):
                    alpha, beta = (j, split), (split + 1, k)
                    if pairing(mu, alpha) <= 0 or pairing(mu, beta) <= 0:
                        continue
                    via_ab = tilde[alpha][x]
                    via_ab = via_ab if via_ab is None else tilde[beta][via_ab]
                    via_ba = tilde[beta][x]
                    via_ba = via_ba if via_ba is None else tilde[alpha][via_ba]
                    direct = tilde[gamma][x]
                    if direct is None or via_ab != direct or via_ba != direct:
                        bad += 1
    report.tally("commutation", f"{base} sum-root commutation on dominant elements", bad)


# -- suite: arrows -------------------------------------------------------------


def _bad_labels(interval: IntervalGraph) -> int:
    """The number of edges whose label does not take the head to the tail.

    A label t is an involution, t(t mu) = mu, so it takes the head to the
    tail exactly when it takes the tail to the head: the number is the
    same at every stage, whichever way an edge points.
    """
    weights = interval.weights
    return sum(apply_affine_reflection(label, weights[dst]) != weights[src] for src, dst, label, _ in interval.edges)


def check_arrows(report: VerifyReport, shape: _Shape) -> None:
    lam, rank = shape.lam, shape.rank
    base = f"n={rank} lam'={format_weight(lam)}"
    *views, ginf = shape.views(lam)
    interval = ginf.interval
    stage_m = interval.stabilization_stage

    g0 = views[0]
    bad = sum(1 for mu in g0.vertices if g0.arr(mu) != length(mu))
    report.tally("stage0-length", f"{base} stage-0 in-degree equals length", bad)

    bad = sum(1 for mu in ginf.vertices if ginf.arr(mu) != arr_infinity_formula(mu, lam))
    report.tally("infinity-closed-form", f"{base} infinity in-degree closed form", bad)

    # read from the wall tables, never from the edges: the wall before stage M turns a pair of I(lam), the next none
    held = [bool(shape.pairs(interval.mask, m)) for m in (stage_m - 1, stage_m) if m >= 0]
    report.record(
        "stabilization",
        held == [True, False][-len(held) :],
        f"{base} stabilization at stage {stage_m}",
        "pairs in the walls before and after stage M",
        held,
    )

    bad = _bad_labels(interval)
    for g in views + [ginf]:
        report.tally("edge-labels", f"{base} stage {g.stage} edge labels reflect head to tail", bad)

    for g, g_next, change, _ in shape.walls(lam):
        bad = sum(map(ne, map(sub, g_next.indegree, g.indegree), change))
        report.tally("update-rule", f"{base} update rule into stage {g_next.stage}", bad)

    c, dec = shape.crystal, shape.decomposition
    # phi_beta = phi_n at w^{-1} x for beta = (j, n) outside the parabolic; the length along the others
    phi_n = [c.phi(rank, y) for y in range(c.size)]
    formula = [0] * c.size
    for j in range(1, rank + 1):
        formula = list(map(add, formula, map(phi_n.__getitem__, c.weyl_row(tuple(range(rank - 1, j - 1, -1))))))
    parabolic = [beta for beta in positive_roots(rank) if in_parabolic(beta, rank)]
    bad = 0
    for x, phi_sum in enumerate(formula):
        mu = c.weight(x)
        ginf = shape.views(dec.atom_of(x).highest_weight)[-1]
        if ginf.arr(mu) != phi_sum + sum(length_along(mu, beta) for beta in parabolic):
            bad += 1
    report.tally("per-element-infinity", f"{shape.case} per-element infinity formula", bad)


# -- suite: gammam --------------------------------------------------------------


def check_gammam(report: VerifyReport, shape: _Shape) -> None:
    base = f"n={shape.rank} lam'={format_weight(shape.lam)}"
    for g, _, _, pairs in shape.walls(shape.lam):
        bad = sum(1 for i, j in pairs if g.indegree[i] != g.indegree[j] - 1)
        report.tally("wall-difference", f"{base} stage {g.stage} in-degree difference ({len(pairs)} pairs)", bad)


# -- suite: swapping -------------------------------------------------------------


def check_swapping(report: VerifyReport, shape: _Shape) -> None:
    c, dec, base = shape.crystal, shape.decomposition, shape.case
    images: dict[tuple[int, Weight], list[int]] = {}

    for atom_idx, atom in enumerate(dec.atoms):
        interval = shape.views(atom.highest_weight)[0].interval
        element_at: dict[int, int] = {}
        duplicate = False
        for x in atom.element_ids:
            i = interval.ids[c.weight(x)]
            if i in element_at:
                duplicate = True
            element_at[i] = x
        if duplicate:
            report.record(
                "repeated-weights", False, f"{base} atom#{atom_idx} weights repeat", "multiplicity one", "repeat"
            )
            continue

        for g, g_next, change, pairs in shape.walls(atom.highest_weight):
            m = g.stage
            psi_images = set()
            bad_totality = 0
            bad_weight = 0
            bad_atom = 0
            bad_drop = 0
            for i, j in pairs:
                mu, tmu = interval.weights[i], interval.weights[j]
                x = element_at.get(j)
                if x is None:
                    bad_totality += 1
                    continue
                try:
                    y = swapping_map(c, dec, m, mu, x)
                except SwappingError:
                    bad_totality += 1
                    continue
                if c.weight(y) != mu:
                    bad_weight += 1
                if dec.member_of[y] != atom_idx:
                    bad_atom += 1
                y_graph = g_next if dec.member_of[y] == atom_idx else None
                # recharge values are doubled: a drop of one reads 2
                drop = recharge(c, dec, x, m + 1, g_next) - recharge(c, dec, y, m + 1, y_graph)
                if drop != 2:
                    bad_drop += 1
                psi_images.add(y)
                images.setdefault((m, tmu), []).append(y)
            case = f"{base} atom#{atom_idx} stage {m}"
            if pairs:
                report.tally("psi-total", f"{case} psi total", bad_totality)
                report.tally("psi-target", f"{case} psi lands at mu inside the atom", bad_weight + bad_atom)
                report.tally("recharge-drop", f"{case} recharge drops by one", bad_drop)

            bad_delta = 0
            plus_cases = set()
            for i, x in element_at.items():
                if g_next.indegree[i] - g.indegree[i] != change[i]:
                    bad_delta += 1
                if change[i] == 1:
                    plus_cases.add(x)
            report.tally("three-case-delta", f"{case} three-case delta", bad_delta)
            report.record(
                "psi-images",
                plus_cases == psi_images,
                f"{case} +1 cases are the psi images",
                sorted(plus_cases),
                sorted(psi_images),
            )

    for (m, tmu), targets in sorted(images.items()):
        report.record(
            "psi-injective",
            len(targets) == len(set(targets)),
            f"{base} stage {m} psi injective on weight {format_weight(tmu)}",
            len(targets),
            len(set(targets)),
        )


# -- suite: hecke -----------------------------------------------------------------


def check_hecke(report: VerifyReport, shape: _Shape) -> None:
    lam, c, base = shape.lam, shape.crystal, shape.case
    coeffs = hecke_atomic_expansion(shape.decomposition)
    leading = coeffs.get(lam, HalfLaurentPolynomial.zero())
    report.record(
        "leading-coefficient", leading == HalfLaurentPolynomial.one(), f"{base} leading coefficient", "1", leading.text("v")
    )
    bad = sum(0 if poly.coefficients_nonnegative() else 1 for poly in coeffs.values())
    report.tally("nonnegative", f"{base} coefficients nonnegative", bad)
    for nu in dominant_interval(lam):
        lhs = kostka_from_hecke(coeffs, nu)
        tableaux = [c.elements[x] for x in c.elements_of_weight(nu)]
        rhs = kostka_of_tableaux(tableaux, nu, "new").scale_exponents(2)
        report.record(
            "reconstruction",
            lhs == rhs,
            f"{base} reconstruction at nu={format_weight(nu)}",
            rhs.text("v"),
            lhs.text("v"),
        )


# -- driver ------------------------------------------------------------------------


def run_verify(
    suite: str,
    rank: int = 2,
    max_weight: int = 4,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> VerifyReport:
    """Run one named suite (or all of them) over the sweep bounds, shape by shape."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if max_weight < 0:
        raise ValueError(f"max weight must be nonnegative, got {max_weight}")
    report = VerifyReport(suite)
    views, tables = {}, {}
    # Looked up per call, so a wrapper installed on a module attribute takes effect.
    checks = {
        "oracles": check_oracles,
        "atoms": check_atoms,
        "gammam": check_gammam,
        "arrows": check_arrows,
        "swapping": check_swapping,
        "strings": check_strings,
        "hecke": check_hecke,
    }
    names = SUITES[:-1] if suite == "all" else (suite,)
    for lam in sweep_shapes(rank, max_weight):
        shape = _Shape(normalize_shape(lam, rank), rank, max_elements, views, tables)
        for name in names:
            checks[name](report, shape)
    return report
