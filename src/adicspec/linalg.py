"""Exact linear algebra on one sparse integer matrix value.

A ``Matrix`` is a shape and sparse rows, so every operation costs in
proportion to the nonzeros: ``mat_mul`` sums products of nonzero entries
only, and ``rank`` eliminates without fractions on the shorter side of
the matrix (rank M = rank M^T), dividing each reduced vector by its
content.  It can leave given columns out and report the leading indices
of the reduced columns, which is how a complex's ranks are cleared.  For
callers that read rows of numbers, a ``Matrix`` is also a read-only
sequence of dense rows (``len``, indexing and, through the sequence
protocol, iteration), a view the library itself never reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd


@dataclass(frozen=True)
class Matrix:
    """An integer matrix with len(rows) rows and ncols columns; rows[i]
    maps the column of each nonzero entry of row i to it (read-only)."""

    rows: list
    ncols: int

    @classmethod
    def from_rows(cls, dense, ncols: int = 0) -> Matrix:
        """The matrix of this sequence of dense rows of ints; ncols is the
        width of a matrix without rows."""
        return cls([dict(compress(enumerate(row), row)) for row in dense],
                   len(dense[0]) if dense else ncols)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> list:
        row = [0] * self.ncols
        for c, x in self.rows[i].items():
            row[c] = x
        return row


def _primitive(row: dict) -> dict:
    """The sparse row divided by its content (the gcd of its entries)."""
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def rank(matrix: Matrix, skip=(), leads=None) -> int:
    """Rank over Q of an integer matrix without the columns in skip, a set
    of its column indices, by sparse fraction-free elimination on its
    shorter side, each vector reduced against the pivot with the same
    leading index, its largest: on the Cech differentials that leaves a
    third fewer entries to eliminate than the smallest.  If that side is
    the columns, their pivots' leading indices are added to the set leads."""
    if matrix.ncols - len(skip) < len(matrix.rows):
        vectors = [{} for _ in range(matrix.ncols)]    # reduced in place
        for r, row in enumerate(matrix.rows):
            for c, x in row.items():
                vectors[c][r] = x
        vectors = [v for c, v in enumerate(vectors) if c not in skip]
    else:
        vectors = ({c: x for c, x in row.items() if c not in skip}
                   for row in matrix.rows)
        leads = None
    pivots = {}    # leading index -> the pivot vector with that leading index
    for row in vectors:
        row = _primitive(row)
        while row:
            lead = max(row)
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
    if leads is not None:
        leads.update(pivots)
    return len(pivots)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, summed over the nonzero entries of both factors;
    a has as many columns as b has rows."""
    b_rows = b.rows
    rows = []
    for row in a.rows:
        acc = {}
        get = acc.get
        for k, w in row.items():
            for c, v in b_rows[k].items():
                acc[c] = get(c, 0) + w * v
        rows.append({c: x for c, x in acc.items() if x})
    return Matrix(rows, b.ncols)
