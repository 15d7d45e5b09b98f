"""The weight-lattice kernels against the vector formulas they replaced.

apply_affine_reflection and bruhat_leq_dominant work on two coordinates
or on a sorted copy in place.  The references below are their earlier
forms, through root_vector (a test helper: the package keeps no root
vectors) and sorted(mu, reverse=True); they are
compared on every weight below each dominant weight of size <= 6 at
ranks 1-3, errors and messages included.  line_decompose, which the
package used until its one order test became line_order, works on two
coordinates too; it is checked against a full difference vector on
every pair of those weights, sizes mixed.

The crystal's eps_i table comes from the signature rule, and phi_i and
s_i follow from eps_i and the weight (phi_i - eps_i = wt_i - wt_{i+1});
the references walk the i-strings of the f_i and e_i tables instead, on
every element of every crystal of size <= 6 at ranks 1-4.

llt_gamma_raw sums over the Weyl group for the whole crystal at once:
for each k, the sums over S_(k+1) are the sums over S_k gathered along
the s_k, ..., s_1 rows.  Two references give each element's sum on its
own: llt_gamma_walk_reference, the walk of one orbit along the cosets
s_j ... s_k S_k that llt_gamma_raw was before, and
llt_gamma_raw_reference, which reduces each of the (n+1)! permutations to
a word and applies it.  The row composes each permutation from another
word than the walk, so the two agree only where the s_i rows are a
group action, as on every crystal here.

decompose finds the atoms by one flood fill over the s_i and f_n rows,
and bplus_components over the tilde rows of the dominant elements; the
references are the union-find over the same edges, one element at a
time, that both used before.  The crystal's one conjugation routine
gives f_beta = w f_k w^{-1}, the root strings, the conjugators'
operators and the tilde rows as rows (Crystal.conjugate over
Crystal.weyl_row); the references are root_op_reference and
root_string_stats_reference, one walk per element, which were
Crystal.root_op and Crystal.root_string_stats, and tilde_op_reference.
All are compared on every element of the crystals of size <= 6 at ranks
1-4, and bplus_components, which reads the tilde rows, against the
union-find over tilde_op, one element at a time.

weyl_dimension collapses Weyl's pairwise product over blocks of equal
parts into binomials; the reference is the pairwise product in exact
fractions, on every shape of size <= 10 at ranks 1-6 and on shapes with
parts up to a million.

The operator tables come from one scan of each reading word, with
images looked up by an integer key; the reference runs one signature
pass per (i, element) and rebuilds each image as a tuple of rows.  The
tableau enumeration caps each cell by the room its column needs below;
the reference is the uncapped loop, which backs out of dead ends.

tilde_op, which was Crystal.tilde_op, conjugates one element by the
order-preserving u and applies u^{-1} by reading a reduced word of u
forward; the reference takes any conjugator u, inverts it and applies
the inverse along a reduced word of its own.  They must agree for every
conjugator, on every element and root of the crystals of size <= 6 at
ranks 1-4.  The conjugators are the
permutations with u(a_n) = a, filtered from all of them; conjugators()
must list them in the same lexicographic order, the order-preserving
one first.  atomic_number walks once per j and reads eps_k before each
step s_k; the reference sums eps over each positive root's string, on
the same elements, on B(1) at rank 40 and on B(2, 1) at rank 10.

kostka's "new" route reads charge from the reading word: for each j,
one walk applies s_k for k = j..n on the word, reading eps_k before each
step, with both taken from unmatched_letters.  The reference is
charge(crystal, x), which reads Z from the operator tables; they are
compared on every element, of every weight, of the crystals of size
<= 6 at ranks 1-4, and on every element of dominant weight of the two
shapes of 3,000-3,500 elements at rank 5 with the most such elements,
where kostka(lam, mu, "new") must also equal the sum of q^charge over the
weight-mu elements.

bruhat_below checks lam once and returns the test "mu <= lam", which
bruhat_leq_dominant, dominant_interval and the loops over one lam call;
it must match the reference, and bruhat_leq_dominant's error texts, on
the same weights.  line_order compares mu with mu - k*beta on a known
line; line_compare, which first finds the line of mu - nu, must give
the same order on every weight of the cases, every positive root and
every k from -4 to 4.  is_dominant maps
>= over neighbours; the reference indexes them, on tuples and lists of
length 0-4.  verify reads the wall of each stage reflection from a
table over the ids of I((k,0,...,0)), built once per run, through the
mask of each I(h); the reference is wall_by_weight, the one pass over
a stage view's weights that verify used before, compared on every
(h, m) of the cases.  wall_by_weight is in turn checked against the
per-vertex wall_delta and the reflected_pairs walk it replaced, on
every stage view 0..M-1 of each interval of the cases with its stage
reflection, and on each stage-0 view with every coroot that fits.

The permutation helpers (perm_compose, simple_reflection,
weyl_apply_weight, and weyl_act along the crystal's s_i),
is_semistandard, line_decompose, line_compare, root_vector and the
per-element references above are oracles for the other test modules;
the package itself needs none of them.
"""

from fractions import Fraction
from itertools import permutations, product
from typing import NamedTuple

import pytest

from crystalcharge.affine_graph import (
    AffineCoroot,
    apply_affine_reflection,
    build_interval,
    interval_graph,
    stage_reflection,
)
from crystalcharge.atoms import atomic_number, bplus_components, decompose
from crystalcharge.charge_kostka import HalfLaurentPolynomial, charge, kostka, llt_gamma_raw, word_eps_sum
from crystalcharge.crystal import (
    Crystal,
    conjugators,
    reading_word,
    semistandard_tableaux,
    weyl_dimension,
)
from crystalcharge.root_data import (
    LineOrder,
    bruhat_below,
    bruhat_leq_dominant,
    dominant_interval,
    is_dominant,
    length,
    line_order,
    pairing,
    partitions,
    positive_roots,
    reduced_word,
    rho_doubled,
)
from crystalcharge.verify import _Shape


def perm_compose(v, w):
    """The composite v . w of permutations in one-line notation (w applied first)."""
    return tuple(v[wi] for wi in w)


def simple_reflection(i, size):
    """s_i as a permutation of {0, ..., size-1}; swaps positions i, i+1 (1-based)."""
    out = list(range(size))
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def weyl_apply_weight(w, mu):
    """Act by the permutation w on coordinates: (w.mu)_{w(i)} = mu_i."""
    out = [0] * len(mu)
    for i, wi in enumerate(w):
        out[wi] = mu[i]
    return tuple(out)


def root_vector(beta, n):
    """The root a_{j,k} as a length-(n+1) coordinate vector."""
    j, k = beta
    if not 1 <= j <= k <= n:
        raise ValueError(f"invalid root {beta} for rank {n}")
    vec = [0] * (n + 1)
    vec[j - 1] = 1
    vec[k] = -1
    return tuple(vec)


class StringStats(NamedTuple):
    """Maximal powers of e (eps) and f (phi) not annihilating an element."""

    eps: int
    phi: int


def root_op_reference(c, direction, beta, x):
    """f_beta (resp. e_beta) = w f_k w^{-1} of one element, beta = (j, k), w = s_j ... s_(k-1).

    w^{-1} applies s_j first, w applies it last.
    """
    j, k = beta
    for i in range(j, k):
        x = c.si(i, x)
    x = (c.f if direction == "f" else c.e)(k, x)
    if x is None:
        return None
    for i in range(k - 1, j - 1, -1):
        x = c.si(i, x)
    return x


def root_string_stats_reference(c, beta, x):
    """eps and phi along the beta-string: eps_k and phi_k after w^{-1}, one walk."""
    j, k = beta
    for i in range(j, k):
        x = c.si(i, x)
    return StringStats(c.eps(k, x), c.phi(k, x))


class UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def union_find_components(size, edges):
    """The components of the undirected graph on range(size) with the given edges, sorted."""
    uf = UnionFind(size)
    for a, b in edges:
        uf.union(a, b)
    components = {}
    for x in range(size):
        components.setdefault(uf.find(x), []).append(x)
    return sorted(tuple(members) for members in components.values())


def atom_components_reference(c):
    """The atoms' element sets by union-find over the edges x - s_i(x) and x - f_n(x), one element at a time."""
    n = c.rank
    edges = [(x, c.si(i, x)) for x in range(c.size) for i in range(1, n + 1)]
    edges += [(x, c.f(n, x)) for x in range(c.size) if c.f(n, x) is not None]
    return union_find_components(c.size, edges)


def bplus_components_reference(c):
    """The tilde components of the dominant elements, by union-find over positions."""
    vertices = [x for x in range(c.size) if is_dominant(c.weight(x))]
    position = {x: p for p, x in enumerate(vertices)}
    edges = [
        (position[x], position[y])
        for x in vertices
        for beta in positive_roots(c.rank)
        if (y := tilde_op(c, "f", beta, x)) in position
    ]
    return tuple(tuple(vertices[p] for p in members) for members in union_find_components(len(vertices), edges))


def weyl_act(c, w, x):
    """Apply w to the element x along a reduced word, rightmost letter first; any word gives the same."""
    for i in reversed(reduced_word(w)):
        x = c.si(i, x)
    return x


def line_decompose(mu, nu):
    """Write mu - nu = k * beta with beta a positive root and k a nonzero integer.

    Raises ValueError when mu - nu is not a multiple of a single
    positive root (including mu = nu).
    """
    support = [i for i, a, b in zip(range(len(mu)), mu, nu) if a != b]
    if len(support) == 2:
        a, b = support
        k = mu[a] - nu[a]
        if k == nu[b] - mu[b]:
            return k, (a + 1, b)
    diff = tuple(a - b for a, b in zip(mu, nu))
    raise ValueError(f"difference {diff} does not lie on a root line")


def line_compare(mu, nu):
    """Compare two weights on a common root line in the Bruhat order.

    Returns LOWER when nu < mu, GREATER when mu < nu, EQUAL when they
    coincide; line_order decides, with mu - nu = k*beta.
    """
    if mu == nu:
        return LineOrder.EQUAL
    k, beta = line_decompose(mu, nu)
    return line_order(mu, beta, k)


def is_semistandard(rows, max_entry):
    """Entries in 1..max_entry, rows weakly increasing, columns strictly increasing."""
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if not 1 <= v <= max_entry:
                return False
            if c > 0 and row[c - 1] > v:
                return False
            if r > 0 and c < len(rows[r - 1]) and rows[r - 1][c] >= v:
                return False
    return True


def reflect_reference(a, mu):
    n = len(mu) - 1
    vec = root_vector(a.root, n)
    p = pairing(mu, a.root)
    shift = (a.level + p) if a.sign == -1 else (p - a.level)
    return tuple(x - shift * v for x, v in zip(mu, vec))


def bruhat_reference(mu, lam):
    partial = 0
    for a, b in zip(sorted(mu, reverse=True), lam):
        partial += a - b
        if partial > 0:
            return False
    return True


def is_dominant_reference(mu):
    return all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1))


def wall_delta_reference(coroot, mu, graph):
    """Predicted change of arr(mu) when the edges labeled coroot reverse.

    -1 when the reflection of mu is Bruhat-lower, +1 when it is higher
    and still a vertex of the graph, 0 otherwise (also when mu is fixed).
    """
    tmu = apply_affine_reflection(coroot, mu)
    if tmu == mu:
        return 0
    if line_compare(mu, tmu) is LineOrder.LOWER:
        return -1
    return 1 if tmu in graph.vertices else 0


def reflected_pairs_reference(coroot, graph):
    """(mu, t mu) for each vertex mu below its reflection t mu, a vertex too."""
    for mu in graph.vertices:
        tmu = apply_affine_reflection(coroot, mu)
        if tmu != mu and tmu in graph.vertices and line_compare(mu, tmu) is LineOrder.GREATER:
            yield mu, tmu


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


def phi_rows(c):
    """phi_i of every element, one row per i, read through the accessor."""
    return tuple(tuple(c.phi(i, x) for x in range(c.size)) for i in range(1, c.rank + 1))


def si_reference(c, i, x):
    """Reverse the i-string: phi - eps steps of f_i, or eps - phi steps of e_i."""
    m = phi_reference(c, i, x) - eps_reference(c, i, x)
    op = c.f if m >= 0 else c.e
    for _ in range(abs(m)):
        x = op(i, x)
    return x


def llt_gamma_walk_reference(c, x):
    """The raw Weyl sum of one element, walking its orbit along the cosets s_j ... s_k S_k, s_k applied first."""
    orbit = [x]
    for k in range(1, c.rank + 1):
        coset = orbit
        for i in range(k, 0, -1):
            coset = list(map(c.si_row(i).__getitem__, coset))
            orbit += coset
    return sum(map(c.gamma_summands.__getitem__, orbit))


def llt_gamma_raw_reference(c, x):
    n = c.rank
    total = 0
    for perm in permutations(range(n + 1)):
        y = weyl_act(c, perm, x)
        total += sum(i * min(c.eps(i, y), c.phi(i, y)) for i in range(1, n + 1))
    return total


def conjugating_permutation(rank, beta):
    """The order-preserving u in S_{n+1} with u(a_n) = beta: it keeps the relative order of the other letters."""
    return next(conjugators(rank, beta))


def conjugated_op(c, direction, x, u):
    """u f_n u^{-1} (resp. e_n) of one element along c.si, u^{-1} applied as u's reduced word read forward.

    Crystal.conjugate composes u^{-1} the same way; a reduced word of
    u^{-1} of its own can differ from it, and then a corrupted s_i gives
    another image.
    """
    word = reduced_word(u)
    for i in word:
        x = c.si(i, x)
    x = (c.f if direction == "f" else c.e)(c.rank, x)
    if x is None:
        return None
    for i in reversed(word):
        x = c.si(i, x)
    return x


def tilde_op(c, direction, beta, x):
    """u f_n u^{-1} (resp. e_n) of one element, u the order-preserving conjugator; was Crystal.tilde_op."""
    return conjugated_op(c, direction, x, conjugating_permutation(c.rank, beta))


def tilde_op_reference(c, direction, beta, x, u):
    """u f_n u^{-1} (resp. e_n) through the inverse permutation and its own reduced word."""
    u_inverse = tuple(sorted(range(len(u)), key=u.__getitem__))
    y = weyl_act(c, u_inverse, x)
    y = root_op_reference(c, direction, (c.rank, c.rank), y)
    if y is None:
        return None
    return weyl_act(c, u, y)


def atomic_number_reference(c, x):
    """2Z: <wt(x), 2 rho^v> plus twice eps along each positive root's string, one walk per root."""
    return rho_doubled(c.weight(x)) + 2 * sum(root_string_stats_reference(c, beta, x).eps for beta in positive_roots(c.rank))


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
                # an involution where it fits: verify counts edge labels once and reads walls from their pairs
                if a.root[1] <= rank:
                    assert apply_affine_reflection(a, apply_affine_reflection(a, mu)) == mu


def test_bruhat_leq_dominant_matches_reference():
    for rank, lam, interval in CASES:
        tops = dominant_weights(rank, sum(lam))
        for mu in interval:
            assert bruhat_leq_dominant(mu, lam)
            for top in tops:
                assert bruhat_leq_dominant(mu, top) == bruhat_reference(mu, top)


def test_bruhat_below_matches_reference_and_messages():
    for rank, lam, interval in CASES:
        for top in dominant_weights(rank, sum(lam)):
            below = bruhat_below(top)
            for mu in interval:
                assert below(mu) == bruhat_reference(mu, top)
    cases = [
        ((1, 1, 1), (0, 1, 2)),  # lam not dominant
        ((1, 1), (2, 1, 0)),  # unequal lengths
        ((1, 1, 1), (2, 2, 0)),  # unequal sums
    ]
    for mu, lam in cases:
        got = outcome(lambda: bruhat_below(lam)(mu))
        assert got[0] == "error"
        assert got == outcome(bruhat_leq_dominant, mu, lam)


def test_line_order_matches_line_compare():
    for rank, _, interval in CASES:
        for mu in interval:
            for beta in positive_roots(rank):
                vec = root_vector(beta, rank)
                for k in range(-4, 5):
                    nu = tuple(a - k * b for a, b in zip(mu, vec))
                    assert line_order(mu, beta, k) is line_compare(mu, nu), (mu, beta, k)


def test_is_dominant_matches_reference():
    for size in range(5):
        for mu in product(range(-1, 3), repeat=size):
            assert is_dominant(mu) == is_dominant(list(mu)) == is_dominant_reference(mu)


def wall_by_weight(g, t):
    """The wall of t in the view g, read in one pass over its vertices.

    Returns the predicted change of arr(mu) when the edges labeled t
    reverse, for each vertex mu: -1 when t mu is Bruhat-lower, +1 when it
    is higher and a vertex, 0 otherwise (also when mu is fixed); and the
    pairs (mu, t mu), in vertex order, with mu below t mu, a vertex too.
    """
    vertices = set(g.vertices)
    change = {}
    pairs = []
    for mu in g.vertices:
        order = line_order(mu, t.root, t.shift(mu))
        delta = -1 if order is LineOrder.LOWER else 0
        if order is LineOrder.GREATER:
            tmu = apply_affine_reflection(t, mu)
            if tmu in vertices:
                delta = 1
                pairs.append((mu, tmu))
        change[mu] = delta
    return change, pairs


def test_wall_tables_match_wall_by_weight():
    """Every (h, m) of the cases: the table reading, mapped back to weights, is wall_by_weight of the view at m."""
    walls = 0
    for rank in (1, 2, 3):
        views, tables = {}, {}
        for case_rank, lam, interval in CASES:
            if case_rank != rank:
                continue
            shape = _Shape(lam, rank, 1000, views, tables)
            read = list(shape.walls(lam))
            assert [g.stage for g, _, _, _ in read] == list(range(len(read)))
            assert len(read) == interval_graph(lam).stabilization_stage
            for g, g_next, change, pairs in read:
                assert g_next.stage == g.stage + 1
                weights, mask = g.interval.weights, g.interval.mask
                expected_change, expected_pairs = wall_by_weight(g, stage_reflection(g.stage + 1, rank))
                assert {weights[i]: d for i, d in enumerate(change) if mask[i]} == expected_change
                assert not any(d for i, d in enumerate(change) if not mask[i])
                assert [(weights[i], weights[j]) for i, j in pairs] == expected_pairs
                walls += bool(pairs)
    assert walls > 50


def assert_wall_matches_references(g, t):
    change, pairs = wall_by_weight(g, t)
    assert change == {mu: wall_delta_reference(t, mu, g) for mu in g.vertices}
    assert pairs == list(reflected_pairs_reference(t, g))
    # each pair's first weight lies below its second
    assert all(line_compare(mu, tmu) is LineOrder.GREATER for mu, tmu in pairs)
    return len(pairs)


def test_wall_matches_per_vertex_references():
    walls = 0
    for rank, lam, _ in CASES:
        interval = interval_graph(lam)
        for m in range(interval.stabilization_stage):
            walls += assert_wall_matches_references(interval.at(m), stage_reflection(m + 1, rank)) > 0
        # a root past the rank fits no vertex
        for t in coroots(rank):
            if t.root[1] <= rank:
                assert_wall_matches_references(interval.at(0), t)
    assert walls > 50


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
                raw = llt_gamma_raw(c)
                for x in range(c.size):
                    assert raw[x] == llt_gamma_raw_reference(c, x)


def small_crystals():
    """Every crystal of size <= 6 at ranks 1-4."""
    for rank in (1, 2, 3, 4):
        for size in range(7):
            for lam in dominant_weights(rank, size):
                yield Crystal.generate(lam, rank)


def test_tilde_op_matches_inverse_permutation_walk():
    for c in small_crystals():
        n = c.rank
        for beta in positive_roots(n):
            j, k = beta
            every = [u for u in permutations(range(n + 1)) if (u[n - 1], u[n]) == (j - 1, k)]
            assert list(conjugators(n, beta)) == every
            assert conjugating_permutation(n, beta) == every[0]
            for u in every:
                for x in range(c.size):
                    for direction in ("f", "e"):
                        assert tilde_op(c, direction, beta, x) == tilde_op_reference(c, direction, beta, x, u)


def test_atomic_number_matches_per_root_sum():
    crystals = list(small_crystals()) + [Crystal.generate((1,), 40), Crystal.generate((2, 1), 10)]
    for c in crystals:
        for x in range(c.size):
            assert atomic_number(c, x) == atomic_number_reference(c, x)


def word_charge(c, x):
    """charge on the reading word, doubled: <wt, 2 rho^v> - length(wt) plus twice the eps walks' sum."""
    mu = c.weight(x)
    return rho_doubled(mu) - length(mu) + 2 * word_eps_sum(reading_word(c.elements[x]), c.rank)


def test_word_charge_matches_table_charge():
    for c in small_crystals():
        for x in range(c.size):
            assert word_charge(c, x) == charge(c, x)


@pytest.mark.parametrize("lam, rank", [((4, 2, 2, 1, 0, 0), 5), ((6, 1, 1, 1, 0, 0), 5)], ids=["4221", "6111"])
def test_word_charge_matches_table_charge_on_large_crystals(lam, rank):
    c = Crystal.generate(lam, rank)
    assert 3000 <= c.size <= 3500
    for mu in dominant_interval(lam):
        want = HalfLaurentPolynomial.zero()
        for x in c.elements_of_weight(mu):
            value = charge(c, x)
            assert word_charge(c, x) == value
            want += HalfLaurentPolynomial({value: 1})
        assert kostka(lam, mu, "new") == want


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
        got = (c._f, c._e, c._eps, phi_rows(c), c._si, c.weights, c.highest)
        assert got == crystal_reference(c.elements, rank), (lam, rank)


def test_llt_gamma_raw_matches_orbit_walk():
    for c in small_crystals():
        assert llt_gamma_raw(c) == tuple(llt_gamma_walk_reference(c, x) for x in range(c.size))


def test_flood_fill_matches_union_find():
    crystals = list(small_crystals()) + [Crystal.generate((2, 1, 1, 0), 3), Crystal.generate((3, 1, 0), 2)]
    for c in crystals:
        assert sorted(atom.element_ids for atom in decompose(c).atoms) == atom_components_reference(c)
        assert bplus_components(c) == bplus_components_reference(c)


def test_verify_rows_match_per_element_walks():
    """The crystal's conjugated rows and w^{-1} rows, which verify reads, against one walk per element."""
    for c in small_crystals():
        n = c.rank
        for j, k in positive_roots(n):
            for direction in ("f", "e"):
                want = [root_op_reference(c, direction, (j, k), x) for x in range(c.size)]
                assert c.conjugate(direction, k, tuple(range(j, k))) == want
            inverse = c.weyl_row(tuple(range(k - 1, j - 1, -1)))
            for x, y in enumerate(inverse):
                stats = root_string_stats_reference(c, (j, k), x)
                assert (c.eps(k, y), c.phi(k, y)) == stats
                assert c.weight(y)[k - 1] - c.weight(y)[k] == stats.phi - stats.eps
        for beta in positive_roots(n):
            for u in conjugators(n, beta):
                for direction in ("f", "e"):
                    got = c.conjugate(direction, n, reduced_word(u))
                    assert got == [tilde_op_reference(c, direction, beta, x, u) for x in range(c.size)]
            assert c.tilde_rows[beta] == [tilde_op(c, "f", beta, x) for x in range(c.size)]
        assert tuple(c.tilde_rows) == positive_roots(n)
        assert bplus_components(c) == bplus_components_reference(c)
