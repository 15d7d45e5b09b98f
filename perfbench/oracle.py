"""
Independent reference computations for the benchmark's output checks.

Nothing here imports crystalcharge: every value the checks compare
against is recomputed from the textbook definitions, so a defect in the
code under test cannot also hide in its oracle.  Weights are tuples of
length rank+1; polynomials are dicts from exponent to coefficient.
"""

from __future__ import annotations

from functools import lru_cache


def pad(parts, rank: int) -> tuple[int, ...]:
    parts = tuple(parts)
    return parts + (0,) * (rank + 1 - len(parts))


def partitions(total: int, max_parts: int, bound: int | None = None):
    """Weakly decreasing positive tuples summing to total, largest first."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(total, bound if bound is not None else total), 0, -1):
        for rest in partitions(total - first, max_parts - 1, first):
            yield (first,) + rest


def weyl_dim(lam) -> int:
    """dim B(lam) by the Weyl product formula, in integers."""
    num = den = 1
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def dominated(mu, lam) -> bool:
    """Dominance mu <= lam for weakly decreasing tuples of equal sum."""
    a = b = 0
    for x, y in zip(mu, lam):
        a += x
        b += y
        if a > b:
            return False
    return a == b


def dominant_below(lam) -> list[tuple[int, ...]]:
    """Dominant weights below lam, largest first."""
    rank = len(lam) - 1
    return [
        pad(p, rank) for p in partitions(sum(lam), rank + 1) if dominated(pad(p, rank), lam)
    ]


def _horizontal_strips(outer, size: int):
    """Inner shapes nu with outer/nu a horizontal strip of the given size."""
    outer = tuple(outer)

    def rec(i: int, left: int, acc: list):
        if i == len(outer):
            if left == 0:
                yield tuple(acc)
            return
        lo = outer[i + 1] if i + 1 < len(outer) else 0
        for v in range(outer[i], lo - 1, -1):
            take = outer[i] - v
            if take > left:
                break
            acc.append(v)
            yield from rec(i + 1, left - take, acc)
            acc.pop()

    yield from rec(0, size, [])


def tableaux_of_content(lam, mu):
    """Tableaux of shape lam and content mu, built by peeling horizontal strips."""
    lam = tuple(v for v in lam if v > 0)
    mu = list(mu)
    while mu and mu[-1] == 0:
        mu.pop()
    if not mu:
        return [tuple(() for _ in lam)] if not lam else []
    letter = len(mu)
    out = []
    for nu in _horizontal_strips(lam, mu[-1]):
        for inner in tableaux_of_content(nu, mu[:-1]):
            rows = []
            for r, length in enumerate(lam):
                base = inner[r] if r < len(inner) else ()
                rows.append(tuple(base) + (letter,) * (length - len(base)))
            out.append(tuple(rows))
    return out


@lru_cache(maxsize=None)
def kostka_number(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""
    return len(tableaux_of_content(lam, mu))
