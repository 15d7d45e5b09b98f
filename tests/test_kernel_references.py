"""The weight-lattice kernels against the vector formulas they replaced.

apply_affine_reflection, bruhat_leq_dominant and line_decompose work on
two coordinates or on a sorted copy in place.  The references below are
their earlier forms, through root_vector, dominant_representative and a
full difference vector; they are compared on every weight below each
dominant weight of size <= 6 at ranks 1-3 (line_decompose on every pair
of them, sizes mixed), errors and messages included.
"""

from crystalcharge.affine_graph import AffineCoroot, apply_affine_reflection, build_interval
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
