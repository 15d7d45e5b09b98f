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

Sweeps may run independently per (rank, shape); all underlying data is
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Callable, Iterator

from .affine_graph import (
    STAGE_INFINITY,
    AffineCoroot,
    IntervalGraph,
    TwistedGraph,
    apply_affine_reflection,
    arr_infinity_formula,
    build_interval,
    interval_graph,
    stage_reflection,
)
from .atoms import Atom, atomic_number, bplus_components, decompose
from .charge_kostka import (
    HalfLaurentPolynomial,
    SwappingError,
    charge,
    hecke_atomic_expansion,
    kostka,
    kostka_from_hecke,
    llt_gamma_raw,
    recharge,
    swapping_map,
)
from .crystal import DEFAULT_MAX_ELEMENTS, Crystal, conjugating_permutation, normalize_shape
from .root_data import (
    LineOrder,
    Weight,
    bruhat_leq_dominant,
    dominant_interval,
    format_weight,
    in_parabolic,
    is_dominant,
    length,
    length_along,
    line_compare,
    pairing,
    partitions,
    positive_roots,
    root_vector,
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


def _sweep_crystals(rank, max_weight, max_elements) -> Iterator[tuple[Weight, Crystal]]:
    for shape in sweep_shapes(rank, max_weight):
        lam = normalize_shape(shape, rank)
        yield lam, Crystal.generate(lam, rank, max_elements)


def _intervals(rank: int) -> Callable[[Weight], IntervalGraph]:
    """I(lam) -> its interval graph, each a restriction of one graph over I((k,0,...,0)) per size k."""
    graphs: dict[int, IntervalGraph] = {}

    def below(lam: Weight) -> IntervalGraph:
        size = sum(lam)
        if size not in graphs:
            graphs[size] = interval_graph((size,) + (0,) * rank)
        return graphs[size].restrict(lam)

    return below


# -- suite: oracles -----------------------------------------------------------


def check_oracles(report: VerifyReport, rank: int, max_weight: int, max_elements: int) -> None:
    one = HalfLaurentPolynomial.one()
    order = factorial(rank + 1)
    for lam, c in _sweep_crystals(rank, max_weight, max_elements):
        for mu in dominant_interval(lam):
            base = f"n={rank} lam={format_weight(lam)} mu={format_weight(mu)}"
            k_new = kostka(c, mu, "new")
            k_ls = kostka(c, mu, "ls")
            k_llt = kostka(c, mu, "llt")
            count = kostka(c, mu, "count").evaluate_at_one()
            report.record("new=ls", k_new == k_ls, f"{base} new=ls", k_new.text(), k_ls.text())
            report.record("new=llt", k_new == k_llt, f"{base} new=llt", k_new.text(), k_llt.text())
            report.record(
                "q=1", k_new.evaluate_at_one() == count, f"{base} value at q=1", count, k_new.evaluate_at_one()
            )
            if mu == lam:
                report.record("K(lam,lam)=1", k_new == one, f"{base} K(lam,lam)=1", "1", k_new.text())

        base = f"n={rank} lam={format_weight(lam)}"
        bad_divisible = 0
        bad_coincide = 0
        for x in range(c.size):
            raw = llt_gamma_raw(c, x)
            quotient, remainder = divmod(raw, order)
            if remainder:
                bad_divisible += 1
                continue
            if is_dominant(c.weight(x)) and charge(c, x) != quotient:
                bad_coincide += 1
        report.record(
            "gamma-divisible", bad_divisible == 0, f"{base} gamma sums divisible by (n+1)!", 0, bad_divisible
        )
        report.record(
            "charge=gamma",
            bad_coincide == 0,
            f"{base} charge equals gamma on dominant elements",
            0,
            bad_coincide,
        )


# -- suite: atoms -------------------------------------------------------------


def validate_atom(report: VerifyReport, atom: Atom, crystal: Crystal, case: str) -> None:
    """Record the three defining properties of an atom, each as the case "<case> <check>"."""
    weights = [crystal.weight(x) for x in atom.element_ids]
    repeated = len(weights) - len(set(weights))
    interval_ok = sorted(set(weights)) == sorted(build_interval(atom.highest_weight))
    z_values = {atomic_number(crystal, x) for x in atom.element_ids}
    for check, ok, detail in (
        ("distinct-weights", repeated == 0, f"{repeated} repeated weights"),
        ("lower-interval", interval_ok, f"weights != interval below {atom.highest_weight}"),
        ("constant-z", z_values == {atom.z}, f"Z values {sorted(z_values)} != {atom.z}"),
    ):
        report.record(check, ok, f"{case} {check}", "pass", detail)


def check_atoms(report: VerifyReport, rank: int, max_weight: int, max_elements: int) -> None:
    for lam, c in _sweep_crystals(rank, max_weight, max_elements):
        base = f"n={rank} lam={format_weight(lam)}"
        dec = decompose(c)

        covered = sorted(x for atom in dec.atoms for x in atom.element_ids)
        report.record(
            "partition",
            covered == list(range(c.size)),
            f"{base} atoms partition the crystal",
            f"{c.size} elements",
            f"{len(covered)} covered",
        )

        for idx, atom in enumerate(dec.atoms):
            validate_atom(report, atom, c, f"{base} atom#{idx}")

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
            holding = sum(
                1 for atom in dec.atoms if bruhat_leq_dominant(mu, atom.highest_weight)
            )
            report.record(
                "multiplicity",
                holding == len(c.elements_of_weight(mu)),
                f"{base} multiplicity at mu={format_weight(mu)}",
                len(c.elements_of_weight(mu)),
                holding,
            )

        bad_closure = 0
        bad_iff = 0
        for x in range(c.size):
            atom_idx = dec.member_of[x]
            highest = dec.atoms[atom_idx].highest_weight
            for j in range(1, rank + 1):
                beta = (j, rank)
                for direction in ("f", "e"):
                    y = c.root_op(direction, beta, x)
                    if y is not None and dec.member_of[y] != atom_idx:
                        bad_closure += 1
                vec = root_vector(beta, rank)
                mu = c.weight(x)
                k = 1
                while True:
                    alive = c.root_op_power("f", beta, x, k) is not None
                    shifted = tuple(a - k * b for a, b in zip(mu, vec))
                    inside = bruhat_leq_dominant(shifted, highest)
                    if alive != inside:
                        bad_iff += 1
                        break
                    if not alive:
                        break
                    k += 1
        report.record(
            "closure", bad_closure == 0, f"{base} last-column operators preserve atoms", 0, bad_closure
        )
        report.record(
            "lowering-depth", bad_iff == 0, f"{base} lowering power matches interval depth", 0, bad_iff
        )


# -- suite: strings ------------------------------------------------------------


def _all_conjugators(rank: int, beta) -> list[tuple[int, ...]]:
    """Every permutation u with u(a_n) = beta (there are (n-1)! of them)."""
    from itertools import permutations as iter_perms

    j, k = beta
    size = rank + 1
    rest_targets = [t for t in range(size) if t != j - 1 and t != k]
    out = []
    for assignment in iter_perms(rest_targets):
        u = list(assignment) + [j - 1, k]
        out.append(tuple(u))
    return out


def check_strings(report: VerifyReport, rank: int, max_weight: int, max_elements: int) -> None:
    for lam, c in _sweep_crystals(rank, max_weight, max_elements):
        base = f"n={rank} lam={format_weight(lam)}"
        roots = positive_roots(rank)

        bad = 0
        for x in range(c.size):
            for beta in roots:
                stats = c.root_string_stats(beta, x)
                if stats.phi - stats.eps != pairing(c.weight(x), beta):
                    bad += 1
        report.record("pairing", bad == 0, f"{base} phi-eps pairing identity", 0, bad)

        bad = 0
        for i in range(1, rank):
            beta = (i, i + 1)
            for x in range(c.size):
                y = c.root_op("f", beta, x)
                if y is None:
                    continue
                if c.eps(i, x) + c.phi(i + 1, x) != c.eps(i, y) + c.phi(i + 1, y):
                    bad += 1
        report.record("string-sums", bad == 0, f"{base} eps_i + phi_(i+1) constant on strings", 0, bad)

        if rank >= 3:
            bad = 0
            for beta in roots:
                reference = conjugating_permutation(rank, beta)
                for u in _all_conjugators(rank, beta):
                    if u == reference:
                        continue
                    for x in range(c.size):
                        for direction in ("f", "e"):
                            if c.tilde_op(direction, beta, x) != c.tilde_op(
                                direction, beta, x, u=u
                            ):
                                bad += 1
            report.record("conjugator-choice", bad == 0, f"{base} conjugator choice independence", 0, bad)

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
                        via_ab = c.tilde_op("f", alpha, x)
                        via_ab = via_ab if via_ab is None else c.tilde_op("f", beta, via_ab)
                        via_ba = c.tilde_op("f", beta, x)
                        via_ba = via_ba if via_ba is None else c.tilde_op("f", alpha, via_ba)
                        direct = c.tilde_op("f", gamma, x)
                        if direct is None or via_ab != direct or via_ba != direct:
                            bad += 1
        report.record("commutation", bad == 0, f"{base} sum-root commutation on dominant elements", 0, bad)


# -- suite: arrows -------------------------------------------------------------


def _wall_delta(coroot: AffineCoroot, mu: Weight, graph: TwistedGraph) -> int:
    """Predicted change of arr(mu) when the edges labeled coroot reverse.

    -1 when the reflection of mu is Bruhat-lower, +1 when it is higher
    and still a vertex of the graph, 0 otherwise (also when mu is fixed).
    """
    tmu = apply_affine_reflection(coroot, mu)
    if tmu == mu:
        return 0
    if line_compare(mu, tmu) is LineOrder.LOWER:
        return -1
    return 1 if tmu in graph.indegree else 0


def _reflected_pairs(coroot: AffineCoroot, graph: TwistedGraph) -> Iterator[tuple[Weight, Weight]]:
    """(mu, t mu) for each vertex mu above its reflection t mu, a vertex too."""
    for mu in graph.vertices:
        tmu = apply_affine_reflection(coroot, mu)
        if tmu != mu and tmu in graph.indegree and line_compare(mu, tmu) is LineOrder.GREATER:
            yield mu, tmu


def check_arrows(report: VerifyReport, rank: int, max_weight: int, max_elements: int) -> None:
    below = _intervals(rank)
    infinity: dict[Weight, TwistedGraph] = {}
    for shape in sweep_shapes(rank, max_weight):
        lam = normalize_shape(shape, rank)
        base = f"n={rank} lam'={format_weight(lam)}"
        interval = below(lam)
        stage_m = interval.stabilization_stage
        views = [interval.at(m) for m in range(stage_m + 1)]

        g0 = views[0]
        bad = sum(1 for mu in g0.vertices if g0.arr(mu) != length(mu))
        report.record("stage0-length", bad == 0, f"{base} stage-0 in-degree equals length", 0, bad)

        ginf = infinity[lam] = interval.at(STAGE_INFINITY)
        bad = sum(1 for mu in ginf.vertices if ginf.arr(mu) != arr_infinity_formula(mu, lam))
        report.record("infinity-closed-form", bad == 0, f"{base} infinity in-degree closed form", 0, bad)

        report.record(
            "stabilization",
            set(views[stage_m].edges) == set(ginf.edges),
            f"{base} stabilization at stage {stage_m}",
            "stage graph equals infinity graph",
            "differs",
        )

        for g in views + [ginf]:
            bad = sum(
                1 for src, dst, label in g.edges if apply_affine_reflection(label, dst) != src
            )
            report.record(
                "edge-labels", bad == 0, f"{base} stage {g.stage} edge labels reflect head to tail", 0, bad
            )

        for m in range(stage_m):
            g, g_next = views[m], views[m + 1]
            t = stage_reflection(m + 1, rank)
            bad = sum(1 for mu in g.vertices if g_next.arr(mu) - g.arr(mu) != _wall_delta(t, mu, g))
            report.record("update-rule", bad == 0, f"{base} update rule into stage {m + 1}", 0, bad)

    for lam, c in _sweep_crystals(rank, max_weight, max_elements):
        base = f"n={rank} lam={format_weight(lam)}"
        dec = decompose(c)
        bad = 0
        for x in range(c.size):
            mu = c.weight(x)
            ginf = infinity[dec.atom_of(x).highest_weight]
            formula = sum(
                c.root_string_stats(beta, x).phi
                if not in_parabolic(beta, rank)
                else length_along(mu, beta)
                for beta in positive_roots(rank)
            )
            if ginf.arr(mu) != formula:
                bad += 1
        report.record("per-element-infinity", bad == 0, f"{base} per-element infinity formula", 0, bad)


# -- suite: gammam --------------------------------------------------------------


def check_gammam(report: VerifyReport, rank: int, max_weight: int, max_elements: int) -> None:
    below = _intervals(rank)
    for shape in sweep_shapes(rank, max_weight):
        lam = normalize_shape(shape, rank)
        base = f"n={rank} lam'={format_weight(lam)}"
        interval = below(lam)
        for m in range(interval.stabilization_stage):
            g = interval.at(m)
            bad = 0
            applicable = 0
            for mu, tmu in _reflected_pairs(stage_reflection(m + 1, rank), g):
                applicable += 1
                if g.arr(mu) != g.arr(tmu) - 1:
                    bad += 1
            report.record(
                "wall-difference",
                bad == 0,
                f"{base} stage {m} in-degree difference ({applicable} pairs)",
                0,
                bad,
            )


# -- suite: swapping -------------------------------------------------------------


def check_swapping(report: VerifyReport, rank: int, max_weight: int, max_elements: int) -> None:
    below = _intervals(rank)
    views: dict[Weight, list[TwistedGraph]] = {}
    for lam, c in _sweep_crystals(rank, max_weight, max_elements):
        base = f"n={rank} lam={format_weight(lam)}"
        dec = decompose(c)

        for atom in dec.atoms:
            if atom.highest_weight not in views:
                interval = below(atom.highest_weight)
                views[atom.highest_weight] = [
                    interval.at(m) for m in range(interval.stabilization_stage + 1)
                ]

        images: dict[tuple[int, Weight], list[int]] = {}

        for atom_idx, atom in enumerate(dec.atoms):
            stage_views = views[atom.highest_weight]
            element_at: dict[Weight, int] = {}
            duplicate = False
            for x in atom.element_ids:
                if c.weight(x) in element_at:
                    duplicate = True
                element_at[c.weight(x)] = x
            if duplicate:
                report.record(
                    "repeated-weights", False, f"{base} atom#{atom_idx} weights repeat", "multiplicity one", "repeat"
                )
                continue

            for m in range(len(stage_views) - 1):
                coroot = stage_reflection(m + 1, rank)
                g, g_next = stage_views[m], stage_views[m + 1]
                psi_images = set()
                bad_totality = 0
                bad_weight = 0
                bad_atom = 0
                bad_drop = 0
                applicable = 0
                for mu, tmu in _reflected_pairs(coroot, g):
                    applicable += 1
                    x = element_at.get(tmu)
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
                    drop = recharge(c, dec, x, m + 1, g_next) - recharge(c, dec, y, m + 1, y_graph)
                    if drop != 1:
                        bad_drop += 1
                    psi_images.add(y)
                    images.setdefault((m, tmu), []).append(y)
                if applicable:
                    report.record(
                        "psi-total",
                        bad_totality == 0,
                        f"{base} atom#{atom_idx} stage {m} psi total",
                        0,
                        bad_totality,
                    )
                    report.record(
                        "psi-target",
                        bad_weight + bad_atom == 0,
                        f"{base} atom#{atom_idx} stage {m} psi lands at mu inside the atom",
                        0,
                        bad_weight + bad_atom,
                    )
                    report.record(
                        "recharge-drop",
                        bad_drop == 0,
                        f"{base} atom#{atom_idx} stage {m} recharge drops by one",
                        0,
                        bad_drop,
                    )

                bad_delta = 0
                plus_cases = set()
                for x in atom.element_ids:
                    mu = c.weight(x)
                    expected = _wall_delta(coroot, mu, g)
                    if expected == 1:
                        plus_cases.add(x)
                    if g_next.arr(mu) - g.arr(mu) != expected:
                        bad_delta += 1
                report.record(
                    "three-case-delta",
                    bad_delta == 0,
                    f"{base} atom#{atom_idx} stage {m} three-case delta",
                    0,
                    bad_delta,
                )
                report.record(
                    "psi-images",
                    plus_cases == psi_images,
                    f"{base} atom#{atom_idx} stage {m} +1 cases are the psi images",
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


def check_hecke(report: VerifyReport, rank: int, max_weight: int, max_elements: int) -> None:
    one = HalfLaurentPolynomial.one()
    for lam, c in _sweep_crystals(rank, max_weight, max_elements):
        base = f"n={rank} lam={format_weight(lam)}"
        dec = decompose(c)
        expansion = hecke_atomic_expansion(c, dec)
        report.record(
            "leading-coefficient",
            expansion.coeffs.get(lam) == one,
            f"{base} leading coefficient",
            "1",
            (expansion.coeffs.get(lam) or HalfLaurentPolynomial.zero()).text("v"),
        )
        bad = sum(0 if poly.coefficients_nonnegative() else 1 for poly in expansion.coeffs.values())
        report.record("nonnegative", bad == 0, f"{base} coefficients nonnegative", 0, bad)
        for nu in dominant_interval(lam):
            lhs = kostka_from_hecke(expansion, nu)
            rhs = kostka(c, nu, "new").scale_exponents(2)
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
    """Run one named suite (or all of them) over the sweep bounds."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    report = VerifyReport(suite)
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
    for name in SUITES[:-1] if suite == "all" else (suite,):
        checks[name](report, rank, max_weight, max_elements)
    return report
