"""Exact linear algebra: the rank of integer matrices, and matrix products.

``rank`` takes a matrix as rows of ints and eliminates on sparse
``{index: int}`` vectors without fractions: each vector is reduced against
the pivot vector with the same leading index and divided by its content,
so the elimination involves no rational or floating point arithmetic.
The cost follows the nonzeros: ``itertools.compress`` finds each row's
nonzero entries in one scan at C speed, and elimination runs on the
shorter side of the matrix, its columns when it has fewer columns than
rows (rank M = rank M^T), so only that side's length minus the rank of
its vectors are reduced all the way to zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd


def _primitive(row: dict) -> dict:
    """The sparse row divided by its content (the gcd of its entries)."""
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def rank(matrix) -> int:
    """Rank over Q of a matrix of integer rows, by sparse fraction-free
    elimination on its shorter side."""
    vectors = [dict(compress(enumerate(dense), dense)) for dense in matrix]
    if vectors and len(matrix[0]) < len(vectors):
        columns = [{} for _ in matrix[0]]
        for r, row in enumerate(vectors):
            for c, x in row.items():
                columns[c][r] = x
        vectors = columns
    pivots = {}    # leading index -> the pivot vector with that leading index
    for row in vectors:
        row = _primitive(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            # row := a*row - b*pivot, or row - (b/a)*pivot when a divides b
            a, b = pivot[lead], row[lead]
            if b % a:
                row = {c: a * x for c, x in row.items()}
            else:
                b //= a
            for c, y in pivot.items():
                v = row.get(c, 0) - b * y
                if v:
                    row[c] = v
                else:
                    del row[c]
            row = _primitive(row)
    return len(pivots)


def mat_mul(a, b):
    if not a or not b:
        return []
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in cols] for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
