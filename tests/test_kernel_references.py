"""The weight-lattice kernels against the vector formulas they replaced.

apply_affine_reflection, bruhat_leq_dominant and line_decompose work on
two coordinates or on a sorted copy in place.  The references below are
their earlier forms, through root_vector, dominant_representative and a
full difference vector; they are compared on every weight below each
dominant weight of size <= 6 at ranks 1-3 (line_decompose on every pair
of them, sizes mixed), errors and messages included.

The crystal's eps_i, phi_i and s_i tables come from the signature rule;
the references walk the i-strings of the f_i and e_i tables instead, on
every element of every crystal of size <= 6 at ranks 1-4.

llt_gamma_raw walks the Weyl orbit of an element once along a coset
tree; the reference reduces each of the (n+1)! permutations to a word
and applies it, on the same elements.

weyl_dimension collapses Weyl's pairwise product over blocks of equal
parts into binomials; the reference is the pairwise product in exact
fractions, on every shape of size <= 10 at ranks 1-6 and on shapes with
parts up to a million.
"""

from fractions import Fraction
from itertools import permutations

from crystalcharge.affine_graph import AffineCoroot, apply_affine_reflection, build_interval
from crystalcharge.charge_kostka import llt_gamma_raw
from crystalcharge.crystal import Crystal, weyl_dimension
from crystalcharge.root_data import (
    bruhat_leq_dominant,
    dominant_representative,
    line_decompose,
    pairing,
    partitions,
    positive_roots,
    root_vector,
)


def reflect_reference(a, mu):
    n = len(mu) - 1
    vec = root_vector(a.root, n)
    p = pairing(mu, a.root)
    shift = (a.level + p) if a.sign == -1 else (p - a.level)
    return tuple(x - shift * v for x, v in zip(mu, vec))


def bruhat_reference(mu, lam):
    mu_plus, _ = dominant_representative(mu)
    partial = 0
    for a, b in zip(mu_plus, lam):
        partial += a - b
        if partial > 0:
            return False
    return True


def line_decompose_reference(mu, nu):
    diff = tuple(a - b for a, b in zip(mu, nu))
    support = [i for i, d in enumerate(diff) if d != 0]
    if len(support) != 2 or diff[support[0]] != -diff[support[1]]:
        raise ValueError(f"difference {diff} does not lie on a root line")
    a, b = support
    return diff[a], (a + 1, b)


def string_length(op, i, x):
    """How many times op(i, .) applies to x before it vanishes."""
    steps = 0
    x = op(i, x)
    while x is not None:
        steps += 1
        x = op(i, x)
    return steps


def eps_reference(c, i, x):
    return string_length(c.e, i, x)


def phi_reference(c, i, x):
    return string_length(c.f, i, x)


def si_reference(c, i, x):
    """Reverse the i-string: phi - eps steps of f_i, or eps - phi steps of e_i."""
    m = phi_reference(c, i, x) - eps_reference(c, i, x)
    op = c.f if m >= 0 else c.e
    for _ in range(abs(m)):
        x = op(i, x)
    return x


def llt_gamma_raw_reference(c, x):
    n = c.rank
    total = 0
    for perm in permutations(range(n + 1)):
        y = c.weyl_act(perm, x)
        total += sum(i * min(c.eps(i, y), c.phi(i, y)) for i in range(1, n + 1))
    return total


def weyl_dimension_reference(lam):
    size = len(lam)
    dim = Fraction(1)
    for i in range(size):
        for j in range(i + 1, size):
            dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert dim.denominator == 1
    return int(dim)


def outcome(f, *args):
    try:
        return "value", f(*args)
    except ValueError as exc:
        return "error", str(exc)


def dominant_weights(rank, size):
    return [shape + (0,) * (rank + 1 - len(shape)) for shape in partitions(size, rank + 1)]


CASES = [
    (rank, lam, build_interval(lam, rank))
    for rank in (1, 2, 3)
    for size in range(7)
    for lam in dominant_weights(rank, size)
]


def coroots(rank):
    """Coroots of level <= 3 over the roots of rank + 1, so some do not fit the rank."""
    return [
        AffineCoroot(level, beta, sign)
        for beta in positive_roots(rank + 1)
        for level in range(4)
        for sign in (1, -1)
        if level > 0 or sign == 1
    ]


def test_apply_affine_reflection_matches_reference():
    for rank, _, interval in CASES:
        for mu in interval:
            for a in coroots(rank):
                assert outcome(apply_affine_reflection, a, mu) == outcome(reflect_reference, a, mu)


def test_bruhat_leq_dominant_matches_reference():
    for rank, lam, interval in CASES:
        tops = dominant_weights(rank, sum(lam))
        for mu in interval:
            assert bruhat_leq_dominant(mu, lam)
            for top in tops:
                assert bruhat_leq_dominant(mu, top) == bruhat_reference(mu, top)


def test_line_decompose_matches_reference():
    for rank in (1, 2, 3):
        weights = sorted({mu for case_rank, _, interval in CASES if case_rank == rank for mu in interval})
        for mu in weights:
            for nu in weights:
                assert outcome(line_decompose, mu, nu) == outcome(line_decompose_reference, mu, nu)


def test_string_tables_match_string_walks():
    for rank in (1, 2, 3, 4):
        for size in range(7):
            for lam in dominant_weights(rank, size):
                c = Crystal.generate(lam, rank)
                for i in range(1, rank + 1):
                    for x in range(c.size):
                        assert c.eps(i, x) == eps_reference(c, i, x)
                        assert c.phi(i, x) == phi_reference(c, i, x)
                        assert c.si(i, x) == si_reference(c, i, x)


def test_llt_gamma_raw_matches_per_permutation_sum():
    for rank in (1, 2, 3, 4):
        for size in range(7):
            for lam in dominant_weights(rank, size):
                c = Crystal.generate(lam, rank)
                for x in range(c.size):
                    assert llt_gamma_raw(c, x) == llt_gamma_raw_reference(c, x)


def test_weyl_dimension_matches_weyl_product():
    shapes = [(rank, lam) for rank in range(1, 7) for size in range(11) for lam in dominant_weights(rank, size)]
    assert len(shapes) == 567
    shapes += [
        (1, (10**6, 0)),
        (2, (10**6, 999_999, 0)),
        (8, (10**6,) * 4 + (0,) * 5),
        (8, (10**6, 10**6, 7, 7, 7, 3, 0, 0, 0)),
        (9, (10**5, 10**5 - 1, 5, 4, 3, 2, 1, 1, 1, 1)),
    ]
    for rank, lam in shapes:
        assert weyl_dimension(lam, rank) == weyl_dimension_reference(lam)
