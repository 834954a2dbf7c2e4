"""Helpers that several test modules use."""

import itertools
from fractions import Fraction

from ggdim.symgroup import young_composition


def compositions(k):
    """Every composition of k, one per set of simple indices in 1..k-1."""
    for size in range(k):
        for J in itertools.combinations(range(1, k), size):
            yield young_composition(J, k)


def echelon(rows):
    """Reduced row echelon form over a field, zero rows dropped.

    Entries are Fractions or RatFuncs.  Two lists of vectors span the same
    space exactly when their echelon forms are equal.
    """
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        pr[:] = [x / pr[c] for x in pr]
        for i, other in enumerate(rows):
            if i != rank and other[c]:
                f = other[c]
                other[:] = [x - f * y for x, y in zip(other, pr)]
        rank += 1
    return [tuple(r) for r in rows[:rank]]


def frac_rank(rows):
    """Rank over Q of a matrix with rational entries."""
    return len(echelon([[Fraction(x) for x in r] for r in rows]))
