"""Acceptance suite: every criterion at its stated bounds, exact tolerances.

The sweep covers ranks 1..3 with |lambda| <= 8 and rank 4 with
|lambda| <= 6; the wall-difference criterion runs over all dominant
weights with rank <= 3 and size <= 8.  Every comparison is exact
(integer or fraction equality); there are no numeric tolerances to
tune.  One PASS/FAIL line is printed per criterion.  Criteria select
cases by check family, and every family the seven suites record
belongs to exactly one criterion.
"""

import pytest

from crystalcharge import cli
from crystalcharge.charge_kostka import kostka
from crystalcharge.crystal import Crystal
from crystalcharge.verify import SUITES, run_verify

FULL_SWEEP = ((1, 8), (2, 8), (3, 8), (4, 6))
GAMMAM_SWEEP = ((1, 8), (2, 8), (3, 8))
MAX_ELEMENTS = 2_000_000

# criterion number -> {suite: the check families of that suite it concludes on}
CRITERIA = {
    1: {"oracles": {"new=ls", "new=llt", "q=1"}},
    2: {"oracles": {"K(lam,lam)=1"}},
    3: {"atoms": {"distinct-weights", "lower-interval", "partition", "tilde-components", "multiplicity"}},
    4: {"atoms": {"constant-z"}},
    5: {"oracles": {"gamma-divisible", "charge=gamma"}},
    6: {"arrows": {"stage0-length"}},
    7: {"gammam": {"wall-difference"}},
    8: {"arrows": {"infinity-closed-form", "per-element-infinity"}},
    9: {"swapping": {
        "repeated-weights", "psi-total", "psi-target", "recharge-drop",
        "three-case-delta", "psi-images", "psi-injective",
    }},
    10: {"hecke": {"leading-coefficient", "nonnegative", "reconstruction"}},
    11: {"strings": {"pairing", "string-sums", "conjugator-choice", "commutation"}},
    13: {
        "atoms": {"closure", "lowering-depth"},
        "arrows": {"stabilization", "edge-labels", "update-rule"},
    },
}


def _run_suite(cache, name):
    """One report per sweep point of the named suite, computed once per module."""
    if name not in cache:
        sweep = GAMMAM_SWEEP if name == "gammam" else FULL_SWEEP
        cache[name] = [run_verify(name, rank, mw, MAX_ELEMENTS) for rank, mw in sweep]
    return cache[name]


@pytest.fixture(scope="module")
def suites():
    return {}


def _conclude(capsys, number, description, suites):
    cases = 0
    failures = []
    for name, families in CRITERIA[number].items():
        for report in _run_suite(suites, name):
            cases += sum(report.counts.get(check, 0) for check in families)
            failures += [f for f in report.failures if f.check in families]
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"[criterion {number:02d}] {status} {description} (cases={cases}, failures={len(failures)})")
    assert cases > 0, "criterion must not be vacuous"
    assert not failures, failures[:10]


def test_criterion_01_triple_oracle_agreement(suites, capsys):
    _conclude(capsys, 1, "Kostka agreement: new = ls = llt and value at q=1 equals the count", suites)


def test_criterion_02_pinned_values(suites, capsys):
    assert kostka(Crystal.generate((2, 0), 1), (1, 1), "new").text() == "q"
    assert kostka(Crystal.generate((2, 0), 1), (1, 1), "ls").text() == "q"
    assert kostka(Crystal.generate((2, 1, 0), 2), (1, 1, 1), "new").text() == "q^2 + q"
    assert kostka(Crystal.generate((2, 1, 0), 2), (1, 1, 1), "ls").text() == "q^2 + q"
    _conclude(capsys, 2, "pinned values and K(lam,lam)=1 across the sweep", suites)


def test_criterion_03_atomic_decomposition_soundness(suites, capsys):
    _conclude(capsys, 3, "atoms: distinct weights, lower intervals, dominant components match", suites)


def test_criterion_04_z_constancy(suites, capsys):
    _conclude(capsys, 4, "atomic number constant on every atom", suites)


def test_criterion_05_per_element_charge_coincidence(suites, capsys):
    _conclude(capsys, 5, "charge equals the Weyl-averaged statistic; gamma sums divisible", suites)


def test_criterion_06_stage0_length_identity(suites, capsys):
    _conclude(capsys, 6, "stage-0 in-degree equals Bruhat length on every interval", suites)


def test_criterion_07_wall_difference_identity(suites, capsys):
    _conclude(
        capsys, 7, "in-degree difference of one across every reversed wall (n<=3, |lam'|<=8)", suites
    )


def test_criterion_08_infinity_closed_form(suites, capsys):
    _conclude(
        capsys, 8, "stage-infinity in-degrees match the interval and per-element formulas", suites
    )


def test_criterion_09_swapping_functions(suites, capsys):
    _conclude(
        capsys, 9,
        "swapping maps total, injective, atom-preserving, recharge drop one, deltas three-case",
        suites,
    )


def test_criterion_10_hecke_reconstruction(suites, capsys):
    lam210 = kostka(Crystal.generate((2, 1, 0), 2), (1, 1, 1))  # warm sanity: q + q^2 exists
    assert lam210.evaluate_at_one() == 2
    from crystalcharge.charge_kostka import hecke_atomic_expansion, HalfLaurentPolynomial

    expansion = hecke_atomic_expansion(Crystal.generate((2, 1, 0), 2))
    assert expansion.coeffs == {
        (2, 1, 0): HalfLaurentPolynomial.one(),
        (1, 1, 1): HalfLaurentPolynomial.monomial(2),
    }
    _conclude(capsys, 10, "Kazhdan-Lusztig column reconstructed from atomic coefficients", suites)


def test_criterion_11_crystal_layer_lemmas(suites, capsys):
    _conclude(capsys, 11, "pairing identity, string sums, conjugator independence, commutation", suites)


def test_criterion_12_cli_determinism(capsys):
    invocations = [
        ["kostka", "--rank", "2", "--weight", "3,2,1", "--mu", "2,2,2"],
        ["atoms", "--rank", "2", "--weight", "3,1,0", "--format", "json"],
        ["graph", "--rank", "2", "--weight", "2,1,0", "--stage", "inf", "--format", "dot"],
        ["recharge", "--rank", "1", "--weight", "4,0", "--stage", "3"],
        ["hecke", "--rank", "3", "--weight", "2,1,1,0"],
        ["verify", "--suite", "strings", "--rank", "2", "--max-weight", "3"],
    ]
    failures = []
    for argv in invocations:
        first_status = cli.main(list(argv))
        first = capsys.readouterr().out
        second_status = cli.main(list(argv))
        second = capsys.readouterr().out
        if first != second or first_status != second_status:
            failures.append(argv)

    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(
            f"[criterion 12] {status} CLI byte-determinism "
            f"(cases={len(invocations)}, failures={len(failures)})"
        )
    assert not failures, failures


def test_criterion_13_graph_and_closure_structure(suites, capsys):
    _conclude(
        capsys, 13,
        "stabilization, edge labels, update rule, last-column closure, lowering depth",
        suites,
    )


def test_every_check_family_belongs_to_one_criterion(suites):
    for name in SUITES[:-1]:
        recorded = set().union(*(report.counts for report in _run_suite(suites, name)))
        owners = {
            check: [n for n, by_suite in CRITERIA.items() if check in by_suite.get(name, ())]
            for check in recorded
        }
        assert all(len(found) == 1 for found in owners.values()), (name, owners)


@pytest.mark.parametrize(
    "suite, cases",
    [("oracles", 54), ("atoms", 63), ("strings", 21), ("arrows", 58), ("gammam", 8), ("swapping", 50), ("hecke", 25)],
)
def test_suite_sizes_at_rank_2_weight_3(suite, cases):
    report = run_verify(suite, 2, 3)
    assert (report.cases, report.failures) == (cases, [])
