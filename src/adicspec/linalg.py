"""Exact linear algebra: the rank of integer matrices, and matrix products.

``rank`` takes a matrix as rows of ints and eliminates on sparse
``{col: int}`` rows without fractions: each row is reduced against the
pivot row with the same leading column and divided by its content, so the
elimination involves no rational or floating point arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _primitive(row: dict) -> dict:
    """The sparse row divided by its content (the gcd of its entries)."""
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def rank(matrix) -> int:
    """Rank over Q of a matrix of integer rows, by sparse fraction-free
    elimination."""
    pivots = {}    # leading column -> the pivot row with that leading column
    for dense in matrix:
        row = _primitive({c: x for c, x in enumerate(dense) if x})
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = pivot[lead], row[lead]
            new = {c: a * x for c, x in row.items()}
            for c, y in pivot.items():
                v = new.get(c, 0) - b * y
                if v:
                    new[c] = v
                else:
                    del new[c]
            row = _primitive(new)
    return len(pivots)


def mat_mul(a, b):
    if not a or not b:
        return []
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in cols] for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
