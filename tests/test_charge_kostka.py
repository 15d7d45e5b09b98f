"""Tests for charge statistics, Kostka polynomials and the Hecke expansion."""

from bisect import bisect_right
from fractions import Fraction
from itertools import permutations

import pytest
from test_kernel_references import root_string_stats_reference

from crystalcharge import charge_kostka, cli
from crystalcharge.affine_graph import STAGE_INFINITY, build_graph, interval_graph, stabilization_stage
from crystalcharge.atoms import Atom, AtomDecomposition, atomic_number, decompose
from crystalcharge.charge_kostka import (
    HalfLaurentPolynomial,
    charge,
    hecke_atomic_expansion,
    kostka,
    kostka_from_hecke,
    llt_gamma,
    llt_gamma_raw,
    ls_word_charge,
    recharge,
    recharge_table,
    swapping_map,
    word_eps_sum,
)
from crystalcharge.crystal import Crystal, reading_word
from crystalcharge.root_data import dominant_interval, is_dominant, length, partitions, rho_doubled
from crystalcharge.verify import sweep_shapes

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
    p = P({4: 1}) + P({2: 1})
    q = P({1: 3})
    assert (p + q).doubled_items() == ((4, 1), (2, 1), (1, 3))
    assert (p * P({2: 1})).doubled_items() == ((6, 1), (4, 1))
    assert p.evaluate_at_one() == 2
    assert p.scale_exponents(2) == P({8: 1}) + P({4: 1})


def test_poly_text():
    assert P.zero().text() == "0"
    assert P.one().text() == "1"
    assert P({2: 1}).text() == "q"
    assert (P({4: 1}) + P({2: 1})).text() == "q^2 + q"
    assert P({5: 3}).text() == "3q^(5/2)"
    assert P({-5: 1}).text() == "q^(-5/2)"
    assert (P.one() + P({-4: -2})).text() == "1 - 2q^(-2)"
    assert (P({6: 1}) + P.one()).text("v") == "v^3 + 1"


def test_poly_rejects_non_half_exponent():
    """Exponents are keyed doubled, so the exponent 1/3 would need the key 2/3."""
    with pytest.raises(TypeError):
        P({Fraction(2, 3): 1})


def test_poly_json_round_trip():
    p = P({4: 1}) + P({1: 5})
    assert p.to_json_dict() == {"4": 1, "1": 5}


# -- charge ----------------------------------------------------------------------


def test_charge_of_highest_is_zero(c20, c210):
    assert charge(c20, c20.highest) == 0
    assert charge(c210, c210.highest) == 0


def test_charge_of_zero_weight_elements(c210):
    values = sorted(charge(c210, x) for x in c210.elements_of_weight((1, 1, 1)))
    assert values == [2, 4]


def test_charge_of_sl2_middle(c20):
    x = c20.elements.index(((1, 2),))
    assert charge(c20, x) == 2


def test_charge_is_eps_sum_on_dominant(c210):
    from crystalcharge.root_data import positive_roots

    for x in range(c210.size):
        if is_dominant(c210.weights[x]):
            eps_sum = sum(
                root_string_stats_reference(c210, beta, x).eps for beta in positive_roots(2)
            )
            assert charge(c210, x) == 2 * eps_sum


def test_charge_atom_constancy(c210, dec210):
    for atom in dec210.atoms:
        for x in atom.element_ids:
            value = charge(c210, x) + length(c210.weights[x])
            assert value == atom.z_doubled


# -- recharge ----------------------------------------------------------------------


def test_recharge_stage_zero_is_z_minus_length(c210, dec210):
    for x in range(c210.size):
        expected = dec210.atom_of(x).z_doubled - 2 * length(c210.weights[x])
        assert recharge(c210, dec210, x, 0) == expected


def test_recharge_sl2_infinity(c20, dec20):
    x = c20.elements.index(((1, 2),))
    assert recharge(c20, dec20, x, STAGE_INFINITY) == 0
    assert recharge(c20, dec20, x, 0) == 2


def test_recharge_table_matches_pointwise(c210, dec210):
    table = recharge_table(c210, dec210, 1)
    assert table == tuple(recharge(c210, dec210, x, 1) for x in range(c210.size))


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
                expected = atomic_number(c, x) - 2 * view.arr(c.weights[x])
                assert recharge(c, dec, x, stage, view) == table[x] == expected
                if c is c210:
                    assert recharge(c, dec, x, stage) == expected


def test_recharge_infinity_endpoint(c210, dec210):
    from crystalcharge.affine_graph import arr_infinity_formula

    for x in range(c210.size):
        atom = dec210.atom_of(x)
        expected = atom.z_doubled - 2 * arr_infinity_formula(c210.weights[x], atom.highest_weight)
        assert recharge(c210, dec210, x, STAGE_INFINITY) == expected


@pytest.mark.parametrize("top", [2, 3, 5])
def test_recharge_infinity_rank_one_is_z_minus_phi(top):
    """At rank 1 the infinity arrow count is just phi, so stepping down a
    string raises the recharge by one (two, doubled)."""
    crystal = Crystal.generate((top, 0), 1)
    dec = decompose(crystal)
    for x in range(crystal.size):
        value = recharge(crystal, dec, x, STAGE_INFINITY)
        assert value == dec.atom_of(x).z_doubled - 2 * crystal.phi(1, x)
        y = crystal.f(1, x)
        if y is not None:
            assert recharge(crystal, dec, y, STAGE_INFINITY) == value + 2


def test_charge_difference_within_atom(c210, dec210):
    for atom in dec210.atoms:
        dominant = [x for x in atom.element_ids if is_dominant(c210.weights[x])]
        for x in dominant:
            for y in dominant:
                gap = rho_doubled(c210.weights[x]) - rho_doubled(c210.weights[y])
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


def insertion_tableau(word):
    """Schensted row insertion: each letter bumps the leftmost larger entry of a row into the next row."""
    rows = []
    for v in word:
        for row in rows:
            p = bisect_right(row, v)
            if p == len(row):
                row.append(v)
                break
            row[p], v = v, row[p]
        else:
            rows.append([v])
    return rows


def test_word_charges_are_knuth_invariant():
    """Both word charges are constant on Knuth classes: each word scores as its insertion tableau's reading word.

    Every nonempty word with partition content and up to 7 letters, not
    only the tableau words kostka feeds them; e.g. (1, 2, 1) inserts to
    (2, 1, 1).
    """
    words = 0
    for size in range(1, 8):
        for content in partitions(size, size):
            letters = [v for v, count in enumerate(content, start=1) for _ in range(count)]
            for word in set(permutations(letters)):
                knuth = reading_word(insertion_tableau(word))
                assert sorted(knuth) == letters
                assert ls_word_charge(word) == ls_word_charge(knuth), word
                for rank in (len(content) - 1, len(content)):
                    assert word_eps_sum(word, rank) == word_eps_sum(knuth, rank), (word, rank)
                words += 1
    assert words == 13390
    assert reading_word(insertion_tableau((1, 2, 1))) == (2, 1, 1)


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
    assert llt_gamma(c20)[c20.elements.index(((1, 2),))] == 1
    assert llt_gamma(c20)[c20.highest] == 0
    assert llt_gamma(c210)[c210.highest] == 0


def test_llt_gamma_coincides_with_charge_on_dominant(c210):
    for x in range(c210.size):
        if is_dominant(c210.weights[x]):
            assert 2 * llt_gamma(c210)[x] == charge(c210, x)


def test_llt_gamma_raw_divisible(c210):
    for x in range(c210.size):
        assert llt_gamma_raw(c210)[x] % 6 == 0


# -- Kostka polynomials ------------------------------------------------------------------


def test_kostka_pinned_values():
    assert kostka((2, 0), (1, 1)).text() == "q"
    assert kostka((2, 1, 0), (1, 1, 1)).text() == "q^2 + q"
    assert kostka((2, 1, 0), (2, 1, 0)) == P.one()


@pytest.mark.parametrize("method", ["new", "ls", "llt"])
def test_kostka_methods_agree_small(method):
    for shape in sweep_shapes(2, 5):
        lam = shape + (0,) * (3 - len(shape))
        for mu in dominant_interval(lam):
            reference = kostka(lam, mu, "new")
            other = kostka(lam, mu, method)
            assert reference == other, (lam, mu, method)
            count = kostka(lam, mu, "count")
            assert reference.evaluate_at_one() == count.evaluate_at_one()


def test_kostka_known_table_sl3():
    # classical transition values for |lam| = 3, n = 2
    assert kostka((3, 0, 0), (3, 0, 0)) == P.one()
    assert kostka((3, 0, 0), (2, 1, 0)).text() == "q"
    assert kostka((3, 0, 0), (1, 1, 1)).text() == "q^3"
    assert kostka((2, 1, 0), (2, 1, 0)) == P.one()
    assert kostka((1, 1, 1), (1, 1, 1)) == P.one()


def test_kostka_known_table_sl4_standard_content():
    # classical charge values over standard content, complementary to
    # cocharges at n(1^4) = 6
    assert kostka((4, 0, 0, 0), (1, 1, 1, 1)).text() == "q^6"
    assert kostka((3, 1, 0, 0), (1, 1, 1, 1)).text() == "q^5 + q^4 + q^3"
    assert kostka((2, 2, 0, 0), (1, 1, 1, 1)).text() == "q^4 + q^2"
    assert kostka((2, 1, 1, 0), (1, 1, 1, 1)).text() == "q^3 + q^2 + q"
    assert kostka((1, 1, 1, 1), (1, 1, 1, 1)) == P.one()


def test_kostka_rejects_bad_mu():
    with pytest.raises(ValueError):
        kostka((2, 1, 0), (1, 2, 0))  # not dominant
    with pytest.raises(ValueError):
        kostka((2, 1, 0), (3, 0, 0))  # not below lambda
    with pytest.raises(ValueError):
        kostka((2, 1, 0), (1, 1, 0))  # different coordinate sums
    with pytest.raises(ValueError):
        kostka((2, 1, 0), (1, 1, 1), method="magic")
    with pytest.raises(ValueError, match=r"mu = \(1, 1, 1, 0\) has 4 coordinates; at most 3 allowed at rank 2"):
        kostka((2, 1, 0), (1, 1, 1, 0))


def test_kostka_rejects_a_negative_charge(monkeypatch, capsys):
    """A word whose eps sum makes a doubled charge negative is an invariant broken, not a term."""
    monkeypatch.setattr(charge_kostka, "word_eps_sum", lambda word, rank: -1)
    with pytest.raises(ArithmeticError, match="doubled charge -2 of dominant-weight tableau"):
        kostka((2, 1, 0), (1, 1, 1))
    assert cli.main("kostka --rank 2 --weight 2,1,0 --mu 1,1,1".split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: doubled charge -2 of dominant-weight tableau ")
    assert err.count("\n") == 1 and err.endswith(" is not even and nonnegative\n")


def test_kostka_accepts_short_mu():
    assert kostka((2, 2, 0), (2, 2)) == P.one()


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
    assert recharge(c20, dec20, image, 1) == recharge(c20, dec20, x22, 1) - 2


def test_swapping_rejects_bad_inputs(c20, dec20, c210, dec210):
    x22 = c20.elements.index(((2, 2),))
    with pytest.raises(ValueError):
        swapping_map(c20, dec20, 0, (2, 0), x22)  # (2,0) is above its reflection
    with pytest.raises(ValueError):
        swapping_map(c20, dec20, 0, (1, 1), c20.highest)  # wrong weight
    # the first wall at rank 2 moves mu by -(<mu,a_12^v> + 1) a_12, so its reflection fixes (0,2,1)
    (x,) = c210.elements_of_weight((0, 2, 1))
    with pytest.raises(ValueError, match=r"^\(0, 2, 1\) is not strictly below its reflection \(0, 2, 1\)$"):
        swapping_map(c210, dec210, 0, (0, 2, 1), x)


# -- Hecke expansion -------------------------------------------------------------------------


def test_hecke_example(dec210):
    coeffs = hecke_atomic_expansion(dec210)
    assert coeffs == {
        (2, 1, 0): P.one(),
        (1, 1, 1): P({4: 1}),
    }
    assert coeffs[(1, 1, 1)].text("v") == "v^2"


def test_hecke_leading_coefficient():
    for shape, rank in [((3, 1), 1), ((2, 2, 0), 2), ((3, 1, 0), 2)]:
        crystal = Crystal.generate(shape, rank)
        assert hecke_atomic_expansion(decompose(crystal))[crystal.shape] == P.one()


def test_hecke_exponent_is_eps_sum(dec210):
    coeffs = hecke_atomic_expansion(dec210)
    for atom in dec210.atoms:
        exponent = atom.z_doubled - rho_doubled(atom.highest_weight)
        assert coeffs[atom.highest_weight].doubled_items()[0][0] >= 0
        assert exponent % 2 == 0


@pytest.mark.parametrize("shift", [1, -2], ids=["odd", "negative"])
def test_hecke_rejects_a_tampered_exponent(dec210, shift):
    """The leading atom's doubled exponent is 0: one more is odd, two less is negative."""
    leading = dec210.atoms[0]
    assert leading.z_doubled == rho_doubled(leading.highest_weight)
    tampered = Atom(leading.highest_weight, leading.element_ids, leading.z_doubled + shift)
    dec = AtomDecomposition((tampered, *dec210.atoms[1:]), dec210.member_of)
    with pytest.raises(ArithmeticError, match=f"doubled atom exponent {shift} is not even and nonnegative"):
        hecke_atomic_expansion(dec)


def test_hecke_reconstruction_small():
    for shape in sweep_shapes(2, 5):
        lam = shape + (0,) * (3 - len(shape))
        crystal = Crystal.generate(lam, 2)
        coeffs = hecke_atomic_expansion(decompose(crystal))
        for nu in dominant_interval(lam):
            lhs = kostka_from_hecke(coeffs, nu)
            rhs = kostka(lam, nu, "new").scale_exponents(2)
            assert lhs == rhs, (lam, nu)
