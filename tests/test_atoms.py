"""Tests for the atomic decomposition and the atomic number."""

from itertools import permutations

import pytest
from test_kernel_references import root_op_reference, root_string_stats_reference, root_vector, weyl_act

from crystalcharge.affine_graph import build_interval
from crystalcharge.atoms import (
    Atom,
    AtomStructureError,
    atomic_number,
    bplus_components,
    decompose,
)
from crystalcharge.crystal import Crystal
from crystalcharge.root_data import (
    bruhat_leq_dominant,
    dominant_interval,
    is_dominant,
    partitions,
    rho_doubled,
)
from crystalcharge.verify import VerifyReport, validate_atom


@pytest.fixture(scope="module")
def c210():
    return Crystal.generate((2, 1, 0), 2)


@pytest.fixture(scope="module")
def dec210(c210):
    return decompose(c210)


def full_orbit_components(crystal):
    """Independent oracle: components over all Weyl edges plus f_n edges."""
    n = crystal.rank
    adjacency = {x: set() for x in range(crystal.size)}
    for x in range(crystal.size):
        for w in permutations(range(n + 1)):
            adjacency[x].add(weyl_act(crystal, w, x))
        y = crystal.f(n, x)
        if y is not None:
            adjacency[x].add(y)
            adjacency[y].add(x)
    components = []
    seen = set()
    for start in range(crystal.size):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adjacency[x] - comp)
        seen |= comp
        components.append(tuple(sorted(comp)))
    return sorted(components)


# -- decompose ---------------------------------------------------------------------


def test_decompose_examples(c210, dec210):
    one_atom = decompose(Crystal.generate((2, 0), 1))
    assert [atom.size for atom in one_atom.atoms] == [3]

    orbit = decompose(Crystal.generate((1, 1, 0), 2))
    assert [atom.size for atom in orbit.atoms] == [3]

    assert [atom.size for atom in dec210.atoms] == [7, 1]
    assert [atom.highest_weight for atom in dec210.atoms] == [(2, 1, 0), (1, 1, 1)]


@pytest.mark.parametrize(
    "shape, rank",
    [((2, 0), 1), ((3, 1), 1), ((2, 1, 0), 2), ((2, 2, 0), 2), ((2, 1, 1, 0), 3)],
)
def test_decompose_matches_full_orbit_oracle(shape, rank):
    crystal = Crystal.generate(shape, rank)
    dec = decompose(crystal)
    assert sorted(atom.element_ids for atom in dec.atoms) == full_orbit_components(
        crystal
    )


def test_decompose_partitions(dec210, c210):
    covered = sorted(x for atom in dec210.atoms for x in atom.element_ids)
    assert covered == list(range(c210.size))
    for idx, atom in enumerate(dec210.atoms):
        for x in atom.element_ids:
            assert dec210.member_of[x] == idx


# -- atomic number -------------------------------------------------------------------


def test_atomic_number_of_highest(c210):
    assert atomic_number(c210, c210.highest) == rho_doubled((2, 1, 0)) == 4


def test_atomic_number_splits_zero_weight(c210, dec210):
    values = {}
    for x in c210.elements_of_weight((1, 1, 1)):
        values[x] = atomic_number(c210, x)
    assert sorted(values.values()) == [2, 4]
    for x, z in values.items():
        assert dec210.atom_of(x).z_doubled == z


def test_atomic_number_constant_on_atoms(dec210, c210):
    for atom in dec210.atoms:
        assert {atomic_number(c210, x) for x in atom.element_ids} == {atom.z_doubled}


def test_lowering_highest_lands_in_large_atom(c210, dec210):
    image = root_op_reference(c210, "f", (1, 2), c210.highest)
    assert c210.weights[image] == (1, 1, 1)
    assert dec210.atom_of(image).size == 7


def test_singleton_atom_epsilon_sum(c210, dec210):
    singleton = next(atom for atom in dec210.atoms if atom.size == 1)
    x = singleton.element_ids[0]
    from crystalcharge.root_data import positive_roots

    eps_sum = sum(root_string_stats_reference(c210, beta, x).eps for beta in positive_roots(2))
    assert eps_sum == 1
    assert singleton.z_doubled == 2


# -- validation ------------------------------------------------------------------------


def _validate(atom, crystal):
    report = VerifyReport("atoms")
    validate_atom(report, atom, crystal, set(build_interval(atom.highest_weight)), "atom")
    return report


def test_validate_atom_passes(c210, dec210):
    for atom in dec210.atoms:
        report = _validate(atom, c210)
        assert report.counts == {"distinct-weights": 1, "lower-interval": 1, "constant-z": 1}
        assert not report.failures, report.failures


def test_validate_singleton_interval(c210, dec210):
    singleton = next(atom for atom in dec210.atoms if atom.size == 1)
    assert singleton.highest_weight == (1, 1, 1)
    assert not _validate(singleton, c210).failures


def test_validate_merged_atoms_fails(c210, dec210):
    merged_ids = tuple(sorted(x for atom in dec210.atoms for x in atom.element_ids))
    merged = Atom((2, 1, 0), merged_ids, dec210.atoms[0].z_doubled)
    failed = {f.check: f for f in _validate(merged, c210).failures}
    assert "distinct-weights" in failed
    assert failed["distinct-weights"].case == "atom distinct-weights"
    assert failed["distinct-weights"].actual == "1 repeated weights"


def test_validate_wrong_highest_weight_fails(c210, dec210):
    singleton = next(atom for atom in dec210.atoms if atom.size == 1)
    misplaced = Atom((2, 1, 0), singleton.element_ids, singleton.z_doubled)
    failed = {f.check for f in _validate(misplaced, c210).failures}
    assert failed == {"lower-interval"}


def test_validate_wrong_z_fails(c210, dec210):
    atom = dec210.atoms[0]
    tampered = Atom(atom.highest_weight, atom.element_ids, atom.z_doubled + 2)
    failed = {f.check for f in _validate(tampered, c210).failures}
    assert failed == {"constant-z"}


def test_atom_json(dec210):
    payload = dec210.atoms[0].to_json_dict()
    assert payload == {
        "highest_weight": [2, 1, 0],
        "size": 7,
        "z_doubled": 4,
        "element_ids": [0, 1, 2, 4, 5, 6, 7],
    }


# -- dominant-part components ------------------------------------------------------------


def test_bplus_matches_decompose(c210, dec210):
    restriction = sorted(
        tuple(x for x in atom.element_ids if is_dominant(c210.weights[x]))
        for atom in dec210.atoms
    )
    assert sorted(bplus_components(c210)) == restriction


def test_bplus_sl2_single_component():
    crystal = Crystal.generate((2, 0), 1)
    comps = bplus_components(crystal)
    assert len(comps) == 1
    weights = {crystal.weights[x] for x in comps[0]}
    assert weights == {(2, 0), (1, 1)}


def test_bplus_singletons_when_intervals_are_trivial():
    crystal = Crystal.generate((1, 1, 1), 2)
    assert bplus_components(crystal) == ((0,),)


# -- multiplicity and operator compatibility ------------------------------------------------


@pytest.mark.parametrize("shape, rank", [((2, 1, 0), 2), ((3, 1, 0), 2), ((2, 2, 1, 0), 3)])
def test_multiplicity_bookkeeping(shape, rank):
    crystal = Crystal.generate(shape, rank)
    dec = decompose(crystal)
    lam = crystal.shape
    for mu in dominant_interval(lam):
        holding = sum(
            1 for atom in dec.atoms if bruhat_leq_dominant(mu, atom.highest_weight)
        )
        assert holding == len(crystal.elements_of_weight(mu))


@pytest.mark.parametrize("shape, rank", [((2, 1, 0), 2), ((2, 2, 0), 2), ((2, 1, 1, 0), 3)])
def test_last_column_operators_preserve_atoms(shape, rank):
    crystal = Crystal.generate(shape, rank)
    dec = decompose(crystal)
    for x in range(crystal.size):
        idx = dec.member_of[x]
        highest = dec.atoms[idx].highest_weight
        for j in range(1, rank + 1):
            beta = (j, rank)
            for direction in ("f", "e"):
                y = root_op_reference(crystal, direction, beta, x)
                if y is not None:
                    assert dec.member_of[y] == idx
            vec = root_vector(beta, rank)
            mu = crystal.weights[x]
            k = 1
            while True:
                alive = crystal.root_op_power("f", beta, x, k) is not None
                shifted = tuple(a - k * b for a, b in zip(mu, vec))
                assert alive == bruhat_leq_dominant(shifted, highest)
                if not alive:
                    break
                k += 1


def test_sweep_decompositions_are_sound():
    for rank, max_weight in ((1, 6), (2, 5)):
        for shape in [
            s for total in range(max_weight + 1) for s in partitions(total, rank + 1)
        ]:
            crystal = Crystal.generate(shape, rank)
            dec = decompose(crystal)  # raises AtomStructureError on violation
            assert sum(atom.size for atom in dec.atoms) == crystal.size


@pytest.mark.parametrize(
    "plants, message",
    [
        # two weights above (2,1,0,0) in the atom of elements 0..19 minus 4, 5, 8, 15: the least member's is named
        ({9: (0, 3, 0, 0), 3: (0, 0, 0, 3)}, "component weight (0, 0, 0, 3) not below candidate highest weight (2, 1, 0, 0)"),
        # the top's weight lowered: the atom's highest weight becomes (1,1,1,0), and its first member above it is named
        ({0: (1, 1, 1, 0)}, "component weight (2, 0, 1, 0) not below candidate highest weight (1, 1, 1, 0)"),
    ],
    ids=["two-above", "lowered-top"],
)
def test_planted_weight_fails_decompose_with_first_member_message(plants, message):
    """decompose checks each distinct weight once, in the order of its least member, as the member-by-member check did."""
    c = Crystal.generate((2, 1, 0, 0), 3)
    c.weights = tuple(plants.get(x, mu) for x, mu in enumerate(c.weights))
    with pytest.raises(AtomStructureError) as error:
        decompose(c)
    assert str(error.value) == message
