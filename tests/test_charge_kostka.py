"""Tests for charge statistics, Kostka polynomials and the Hecke expansion."""

from fractions import Fraction

import pytest

from crystalcharge.affine_graph import STAGE_INFINITY, build_graph, interval_graph, stabilization_stage
from crystalcharge.atoms import atomic_number, decompose
from crystalcharge.charge_kostka import (
    HalfLaurentPolynomial,
    charge,
    hecke_atomic_expansion,
    kostka,
    kostka_from_hecke,
    llt_gamma,
    llt_gamma_raw,
    ls_word_charge,
    reading_word,
    recharge,
    recharge_table,
    swapping_map,
)
from crystalcharge.crystal import Crystal
from crystalcharge.root_data import is_dominant, length, rho_pairing
from crystalcharge.verify import dominant_interval, sweep_shapes

P = HalfLaurentPolynomial


@pytest.fixture(scope="module")
def c20():
    return Crystal.generate((2, 0), 1)


@pytest.fixture(scope="module")
def c210():
    return Crystal.generate((2, 1, 0), 2)


@pytest.fixture(scope="module")
def dec20(c20):
    return decompose(c20)


@pytest.fixture(scope="module")
def dec210(c210):
    return decompose(c210)


# -- polynomial carrier ----------------------------------------------------------


def test_poly_arithmetic():
    p = P.monomial(2) + P.monomial(1)
    q = P.monomial(Fraction(1, 2), 3)
    assert (p + q).doubled_items() == ((4, 1), (2, 1), (1, 3))
    assert (p * P.monomial(1)).doubled_items() == ((6, 1), (4, 1))
    assert p.evaluate_at_one() == 2
    assert p.scale_exponents(2) == P.monomial(4) + P.monomial(2)


def test_poly_text():
    assert P.zero().text() == "0"
    assert P.one().text() == "1"
    assert P.monomial(1).text() == "q"
    assert (P.monomial(2) + P.monomial(1)).text() == "q^2 + q"
    assert P.monomial(Fraction(5, 2), 3).text() == "3q^(5/2)"
    assert P.monomial(Fraction(-5, 2)).text() == "q^(-5/2)"
    assert (P.one() + P.monomial(-2, -2)).text() == "1 - 2q^(-2)"
    assert (P.monomial(3) + P.one()).text("v") == "v^3 + 1"


def test_poly_rejects_non_half_exponent():
    with pytest.raises(ValueError):
        P.monomial(Fraction(1, 3))


def test_poly_json_round_trip():
    p = P.monomial(2) + P.monomial(Fraction(1, 2), 5)
    assert p.to_json_dict() == {"4": 1, "1": 5}


# -- charge ----------------------------------------------------------------------


def test_charge_of_highest_is_zero(c20, c210):
    assert charge(c20, c20.highest) == 0
    assert charge(c210, c210.highest) == 0


def test_charge_of_zero_weight_elements(c210):
    values = sorted(charge(c210, x) for x in c210.elements_of_weight((1, 1, 1)))
    assert values == [1, 2]


def test_charge_of_sl2_middle(c20):
    x = c20.elements.index(((1, 2),))
    assert charge(c20, x) == 1


def test_charge_is_eps_sum_on_dominant(c210):
    from crystalcharge.root_data import positive_roots

    for x in range(c210.size):
        if is_dominant(c210.weights[x]):
            eps_sum = sum(
                c210.root_string_stats(beta, x).eps for beta in positive_roots(2)
            )
            assert charge(c210, x) == eps_sum


def test_charge_atom_constancy(c210, dec210):
    for atom in dec210.atoms:
        for x in atom.element_ids:
            value = charge(c210, x) + Fraction(length(c210.weights[x]), 2)
            assert value == atom.z


# -- recharge ----------------------------------------------------------------------


def test_recharge_stage_zero_is_z_minus_length(c210, dec210):
    for x in range(c210.size):
        expected = dec210.atom_of(x).z - length(c210.weights[x])
        assert recharge(c210, dec210, x, 0) == expected


def test_recharge_sl2_infinity(c20, dec20):
    x = c20.elements.index(((1, 2),))
    assert recharge(c20, dec20, x, STAGE_INFINITY) == 0
    assert recharge(c20, dec20, x, 0) == 1


def test_recharge_table_matches_pointwise(c210, dec210):
    table = recharge_table(c210, dec210, 1)
    for x in range(c210.size):
        assert table.values[x] == recharge(c210, dec210, x, 1)
    assert table.stage == 1


def test_recharge_with_supplied_graph(c210, dec210):
    x = c210.highest
    graph = build_graph(dec210.atom_of(x).highest_weight, 1)
    assert recharge(c210, dec210, x, 1, graph) == recharge(c210, dec210, x, 1)
    with pytest.raises(ValueError):
        recharge(c210, dec210, x, 2, graph)
    with pytest.raises(ValueError):
        recharge(c210, dec210, x, True, graph)
    with pytest.raises(ValueError):
        recharge(c210, dec210, x, 1, build_graph((1, 1, 1), 1))


def test_recharge_matches_table_free_reference(c210, dec210):
    """recharge_table restricts one graph; the reference builds each atom's interval directly."""
    c4210 = Crystal.generate((4, 2, 1, 0), 3)
    dec4210 = decompose(c4210)
    assert len({atom.highest_weight for atom in dec4210.atoms}) == 5
    for c, dec in ((c210, dec210), (c4210, dec4210)):
        top = stabilization_stage(c.shape)
        for stage in [*range(top + 1), STAGE_INFINITY]:
            table = recharge_table(c, dec, stage)
            views = {atom.highest_weight: interval_graph(atom.highest_weight).at(stage) for atom in dec.atoms}
            for x in range(c.size):
                view = views[dec.atom_of(x).highest_weight]
                expected = atomic_number(c, x) - view.arr(c.weights[x])
                assert recharge(c, dec, x, stage, view) == table.values[x] == expected
                if c is c210:
                    assert recharge(c, dec, x, stage) == expected


def test_recharge_infinity_endpoint(c210, dec210):
    from crystalcharge.affine_graph import arr_infinity_formula

    for x in range(c210.size):
        atom = dec210.atom_of(x)
        expected = atom.z - arr_infinity_formula(c210.weights[x], atom.highest_weight)
        assert recharge(c210, dec210, x, STAGE_INFINITY) == expected


@pytest.mark.parametrize("top", [2, 3, 5])
def test_recharge_infinity_rank_one_is_z_minus_phi(top):
    """At rank 1 the infinity arrow count is just phi, so stepping down a
    string raises the recharge by one."""
    crystal = Crystal.generate((top, 0), 1)
    dec = decompose(crystal)
    for x in range(crystal.size):
        value = recharge(crystal, dec, x, STAGE_INFINITY)
        assert value == dec.atom_of(x).z - crystal.phi(1, x)
        y = crystal.f(1, x)
        if y is not None:
            assert recharge(crystal, dec, y, STAGE_INFINITY) == value + 1


def test_charge_difference_within_atom(c210, dec210):
    for atom in dec210.atoms:
        dominant = [x for x in atom.element_ids if is_dominant(c210.weights[x])]
        for x in dominant:
            for y in dominant:
                gap = rho_pairing(c210.weights[x]) - rho_pairing(c210.weights[y])
                assert charge(c210, y) == charge(c210, x) + gap


# -- the classical word charge ---------------------------------------------------------


def test_ls_word_charge_standard_words():
    assert ls_word_charge((1, 2)) == 1
    assert ls_word_charge((2, 1)) == 0
    assert ls_word_charge((3, 1, 2)) == 2
    assert ls_word_charge((2, 1, 3)) == 1


def test_ls_word_charge_with_repeats():
    # row word of the highest-weight tableau has charge zero
    assert ls_word_charge((2, 1, 1)) == 0
    assert ls_word_charge((3, 2, 2, 1, 1, 1)) == 0
    # classical values for shape (2,2): K_{(2,2),(2,1,1)} = q, K_{(2,2),(1,1,1,1)} = q^2 + q^4
    assert ls_word_charge((2, 3, 1, 1)) == 1
    assert sorted((ls_word_charge((3, 4, 1, 2)), ls_word_charge((2, 4, 1, 3)))) == [2, 4]


def test_ls_word_charge_empty():
    assert ls_word_charge(()) == 0


def test_ls_word_charge_rejects_non_partition_content():
    with pytest.raises(ValueError):
        ls_word_charge((2, 2, 1))
    with pytest.raises(ValueError):
        ls_word_charge((1, 3))


def test_reading_word_is_bottom_to_top(c210):
    rows = ((1, 2), (3,))
    assert reading_word(rows) == (3, 1, 2)


# -- the Weyl-averaged charge -----------------------------------------------------------


def test_llt_gamma_examples(c20, c210):
    assert llt_gamma(c20, c20.elements.index(((1, 2),))) == 1
    assert llt_gamma(c20, c20.highest) == 0
    assert llt_gamma(c210, c210.highest) == 0


def test_llt_gamma_coincides_with_charge_on_dominant(c210):
    for x in range(c210.size):
        if is_dominant(c210.weights[x]):
            assert llt_gamma(c210, x) == charge(c210, x)


def test_llt_gamma_raw_divisible(c210):
    for x in range(c210.size):
        assert llt_gamma_raw(c210, x) % 6 == 0


# -- Kostka polynomials ------------------------------------------------------------------


def test_kostka_pinned_values():
    assert kostka(Crystal.generate((2, 0), 1), (1, 1)).text() == "q"
    assert kostka(Crystal.generate((2, 1, 0), 2), (1, 1, 1)).text() == "q^2 + q"
    assert kostka(Crystal.generate((2, 1, 0), 2), (2, 1, 0)) == P.one()


@pytest.mark.parametrize("method", ["new", "ls", "llt"])
def test_kostka_methods_agree_small(method):
    for shape in sweep_shapes(2, 5):
        lam = shape + (0,) * (3 - len(shape))
        crystal = Crystal.generate(lam, 2)
        for mu in dominant_interval(lam):
            reference = kostka(crystal, mu, "new")
            other = kostka(crystal, mu, method)
            assert reference == other, (lam, mu, method)
            count = kostka(crystal, mu, "count")
            assert reference.evaluate_at_one() == count.evaluate_at_one()


def test_kostka_known_table_sl3():
    # classical transition values for |lam| = 3, n = 2
    assert kostka(Crystal.generate((3, 0, 0), 2), (3, 0, 0)) == P.one()
    assert kostka(Crystal.generate((3, 0, 0), 2), (2, 1, 0)).text() == "q"
    assert kostka(Crystal.generate((3, 0, 0), 2), (1, 1, 1)).text() == "q^3"
    assert kostka(Crystal.generate((2, 1, 0), 2), (2, 1, 0)) == P.one()
    assert kostka(Crystal.generate((1, 1, 1), 2), (1, 1, 1)) == P.one()


def test_kostka_known_table_sl4_standard_content():
    # classical charge values over standard content, complementary to
    # cocharges at n(1^4) = 6
    assert kostka(Crystal.generate((4, 0, 0, 0), 3), (1, 1, 1, 1)).text() == "q^6"
    assert kostka(Crystal.generate((3, 1, 0, 0), 3), (1, 1, 1, 1)).text() == "q^5 + q^4 + q^3"
    assert kostka(Crystal.generate((2, 2, 0, 0), 3), (1, 1, 1, 1)).text() == "q^4 + q^2"
    assert kostka(Crystal.generate((2, 1, 1, 0), 3), (1, 1, 1, 1)).text() == "q^3 + q^2 + q"
    assert kostka(Crystal.generate((1, 1, 1, 1), 3), (1, 1, 1, 1)) == P.one()


def test_kostka_rejects_bad_mu():
    with pytest.raises(ValueError):
        kostka(Crystal.generate((2, 1, 0), 2), (1, 2, 0))  # not dominant
    with pytest.raises(ValueError):
        kostka(Crystal.generate((2, 1, 0), 2), (3, 0, 0))  # not below lambda
    with pytest.raises(ValueError):
        kostka(Crystal.generate((2, 1, 0), 2), (1, 1, 0))  # different coordinate sums
    with pytest.raises(ValueError):
        kostka(Crystal.generate((2, 1, 0), 2), (1, 1, 1), method="magic")


def test_kostka_accepts_short_mu():
    assert kostka(Crystal.generate((2, 2, 0), 2), (2, 2)) == P.one()


# -- swapping functions ---------------------------------------------------------------------


def test_swapping_example_sl2(c20, dec20):
    x22 = c20.elements.index(((2, 2),))
    image = swapping_map(c20, dec20, 0, (1, 1), x22)
    assert c20.elements[image] == ((1, 2),)
    assert c20.weights[image] == (1, 1)


def test_swapping_weight_and_atom(c210, dec210):
    # stage 0, first reversal coroot is delta - a_{1,2}^v; mu=(1,1,1), t(mu)=(0,1,2)
    from crystalcharge.affine_graph import apply_affine_reflection, stage_reflection

    coroot = stage_reflection(1, 2)
    mu = (1, 1, 1)
    tmu = apply_affine_reflection(coroot, mu)
    assert tmu == (0, 1, 2)
    for x in c210.elements_of_weight(tmu):
        atom = dec210.atom_of(x)
        image = swapping_map(c210, dec210, 0, mu, x)
        assert c210.weights[image] == mu
        assert dec210.atom_of(image) is atom


def test_swapping_recharge_drop(c20, dec20):
    x22 = c20.elements.index(((2, 2),))
    image = swapping_map(c20, dec20, 0, (1, 1), x22)
    assert recharge(c20, dec20, image, 1) == recharge(c20, dec20, x22, 1) - 1


def test_swapping_rejects_bad_inputs(c20, dec20):
    x22 = c20.elements.index(((2, 2),))
    with pytest.raises(ValueError):
        swapping_map(c20, dec20, 0, (2, 0), x22)  # (2,0) is above its reflection
    with pytest.raises(ValueError):
        swapping_map(c20, dec20, 0, (1, 1), c20.highest)  # wrong weight


# -- Hecke expansion -------------------------------------------------------------------------


def test_hecke_example(c210):
    expansion = hecke_atomic_expansion(c210)
    assert expansion.coeffs == {
        (2, 1, 0): P.one(),
        (1, 1, 1): P.monomial(2),
    }
    assert expansion.coeffs[(1, 1, 1)].text("v") == "v^2"


def test_hecke_leading_coefficient():
    for shape, rank in [((3, 1), 1), ((2, 2, 0), 2), ((3, 1, 0), 2)]:
        crystal = Crystal.generate(shape, rank)
        expansion = hecke_atomic_expansion(crystal)
        assert expansion.coeffs[crystal.shape] == P.one()


def test_hecke_exponent_is_eps_sum(c210, dec210):
    expansion = hecke_atomic_expansion(c210, dec210)
    for atom in dec210.atoms:
        exponent = 2 * (atom.z - rho_pairing(atom.highest_weight))
        assert expansion.coeffs[atom.highest_weight].doubled_items()[0][0] >= 0
        assert exponent.denominator == 1


def test_hecke_reconstruction_small():
    for shape in sweep_shapes(2, 5):
        lam = shape + (0,) * (3 - len(shape))
        crystal = Crystal.generate(lam, 2)
        expansion = hecke_atomic_expansion(crystal)
        for nu in dominant_interval(lam):
            lhs = kostka_from_hecke(expansion, nu)
            rhs = kostka(crystal, nu, "new").scale_exponents(2)
            assert lhs == rhs, (lam, nu)
