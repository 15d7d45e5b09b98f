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

The operator tables come from one scan of each reading word, with
images looked up by an integer key; the reference runs one signature
pass per (i, element) and rebuilds each image as a tuple of rows.  The
tableau enumeration caps each cell by the room its column needs below;
the reference is the uncapped loop, which backs out of dead ends.
"""

from fractions import Fraction
from itertools import permutations

from crystalcharge.affine_graph import AffineCoroot, apply_affine_reflection, build_interval
from crystalcharge.charge_kostka import llt_gamma_raw
from crystalcharge.crystal import Crystal, semistandard_tableaux, weyl_dimension
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


def semistandard_tableaux_reference(parts, max_entry):
    """Row-major depth-first filling, each cell up to max_entry."""
    parts = tuple(p for p in parts if p > 0)
    if not parts:
        yield ()
        return
    if len(parts) > max_entry:
        return
    rows = [[0] * p for p in parts]
    cells = [(r, c) for r in range(len(parts)) for c in range(parts[r])]
    last = len(cells) - 1
    pos = 0
    while pos >= 0:
        r, c = cells[pos]
        v = rows[r][c] + 1
        if v > max_entry:
            pos -= 1
            continue
        rows[r][c] = v
        if pos == last:
            yield tuple(tuple(row) for row in rows)
            continue
        pos += 1
        r, c = cells[pos]
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        rows[r][c] = lo - 1


def unmatched_positions(rows, i):
    """Unmatched i and i+1 cells in reading order, after signature cancellation."""
    unmatched_lo = []
    stack = []
    for r in range(len(rows) - 1, -1, -1):
        for c, v in enumerate(rows[r]):
            if v == i + 1:
                stack.append((r, c))
            elif v == i:
                if stack:
                    stack.pop()
                else:
                    unmatched_lo.append((r, c))
    return unmatched_lo, stack


def replace_entry(rows, pos, value):
    r, c = pos
    row = rows[r][:c] + (value,) + rows[r][c + 1 :]
    return rows[:r] + (row,) + rows[r + 1 :]


def operator_tables_reference(elements, rank):
    """f, e, eps, phi and s_i, one signature pass per (i, element); images found by their rows."""
    index = {rows: x for x, rows in enumerate(elements)}
    f_table, e_table, eps_table, phi_table, si_table = [], [], [], [], []
    for i in range(1, rank + 1):
        f_row, e_row, eps_row, phi_row = [], [], [], []
        for rows in elements:
            lo, hi = unmatched_positions(rows, i)
            f_row.append(index[replace_entry(rows, lo[-1], i + 1)] if lo else None)
            e_row.append(index[replace_entry(rows, hi[0], i)] if hi else None)
            eps_row.append(len(hi))
            phi_row.append(len(lo))
        si_row = []
        for x, (eps, phi) in enumerate(zip(eps_row, phi_row)):
            step = f_row if phi >= eps else e_row
            y = x
            for _ in range(abs(phi - eps)):
                y = step[y]
            si_row.append(y)
        f_table.append(tuple(f_row))
        e_table.append(tuple(e_row))
        eps_table.append(tuple(eps_row))
        phi_table.append(tuple(phi_row))
        si_table.append(tuple(si_row))
    return tuple(f_table), tuple(e_table), tuple(eps_table), tuple(phi_table), tuple(si_table)


def crystal_reference(elements, rank):
    """The tables, the weights counted letter by letter, and the id of the highest-weight tableau."""
    weights = tuple(tuple(sum(row.count(v) for row in rows) for v in range(1, rank + 2)) for rows in elements)
    highest = elements.index(tuple((r + 1,) * len(row) for r, row in enumerate(elements[0])))
    return operator_tables_reference(elements, rank) + (weights, highest)


def outcome(f, *args):
    try:
        return "value", f(*args)
    except ValueError as exc:
        return "error", str(exc)


def dominant_weights(rank, size):
    return [shape + (0,) * (rank + 1 - len(shape)) for shape in partitions(size, rank + 1)]


CASES = [
    (rank, lam, build_interval(lam))
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


def test_semistandard_tableaux_match_uncapped_loop():
    for rank in (1, 2, 3, 4):
        for size in range(8):
            for lam in dominant_weights(rank, size):
                got = list(semistandard_tableaux(lam, rank + 1))
                assert got == list(semistandard_tableaux_reference(lam, rank + 1))


def test_operator_tables_match_per_index_passes():
    max_size = {1: 8, 2: 8, 3: 8, 4: 6, 5: 4}
    cases = [(lam, rank) for rank, top in max_size.items() for size in range(top + 1) for lam in dominant_weights(rank, size)]
    cases += [((1,) * k, k) for k in range(1, 41)]
    # one-byte digits end at letter 255; rank 255 needs letter 256
    cases += [((1200,), 1), ((2, 1), 40), ((1,), 254), ((1,), 255), ((1,), 300)]
    for lam, rank in cases:
        c = Crystal.generate(lam, rank)
        got = (c._f, c._e, c._eps, c._phi, c._si, c.weights, c.highest)
        assert got == crystal_reference(c.elements, rank), (lam, rank)
