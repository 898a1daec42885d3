"""Exact rank computations over the rationals.

Matrices are tuples/lists of rows of Fractions (or ints).  Rows are
cleared to integers and reduced by fraction-free elimination, so no
floating point is involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _int_rows(matrix):
    rows = []
    for row in matrix:
        denoms = [Fraction(x).denominator for x in row]
        mult = lcm(*denoms) if denoms else 1
        ints = [int(Fraction(x) * mult) for x in row]
        g = 0
        for x in ints:
            g = gcd(g, x)
        if g > 1:
            ints = [x // g for x in ints]
        rows.append(ints)
    return rows


def rank(matrix) -> int:
    """Rank over Q by integer fraction-free Gaussian elimination."""
    rows = [r for r in _int_rows(matrix) if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pval = prow[col]
        for i in range(r + 1, len(rows)):
            x = rows[i][col]
            if x == 0:
                continue
            row = rows[i]
            new = [pval * a - x * b for a, b in zip(row, prow)]
            g = 0
            for v in new:
                g = gcd(g, v)
            if g > 1:
                new = [v // g for v in new]
            rows[i] = new
        r += 1
        if r == len(rows):
            break
    return r


def mat_mul(a, b):
    if not a or not b:
        return []
    cols = list(zip(*b))
    return [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)),
                 Fraction(0)) for col in cols] for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
