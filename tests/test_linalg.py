"""Exact rank of integer matrices, checked against a Fraction oracle."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from adicspec.linalg import rank


def gauss_jordan_rank(matrix) -> int:
    """Rank by plain Gauss-Jordan elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[r])]
        r += 1
    return r


# mostly-zero integer matrices up to 8 x 8, entries in [-3, 3]; zero rows
# and zero columns (empty, wide and tall shapes) included
_entries = st.sampled_from([0] * 8 + [-3, -2, -1, 1, 2, 3])
_matrices = st.integers(0, 8).flatmap(lambda ncols: st.lists(
    st.lists(_entries, min_size=ncols, max_size=ncols), max_size=8))
_settings = settings(max_examples=150)
# up to 14 x 5 and 5 x 14, so both rows (wide) and columns (tall) are
# eliminated
_skinny_matrices = st.tuples(st.integers(0, 14), st.integers(0, 5)).flatmap(
    lambda shape: st.sampled_from([shape, shape[::-1]])).flatmap(
    lambda shape: st.lists(
        st.lists(_entries, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


def transpose(matrix):
    return [list(col) for col in zip(*matrix)]


class TestRank:
    def test_shapes(self):
        assert rank([]) == 0
        assert rank([[], []]) == 0
        assert rank([[0, 0, 0], [0, 0, 0]]) == 0
        assert rank([[1, 2, 3, 4, 5]]) == 1
        assert rank([[1], [2], [0], [-3]]) == 1
        assert rank([[2, 4], [3, 6], [0, 1]]) == 2

    def test_cancellation_needs_content_division(self):
        # rows whose reduction leaves a common factor
        assert rank([[6, 4, 2], [9, 6, 3], [3, 2, 2]]) == 2

    @_settings
    @given(_matrices)
    def test_matches_gauss_jordan(self, m):
        assert rank(m) == gauss_jordan_rank(m)

    @settings(max_examples=100)
    @given(_skinny_matrices)
    def test_tall_and_wide_match_gauss_jordan(self, m):
        assert rank(m) == gauss_jordan_rank(m)

    @_settings
    @given(_matrices)
    def test_transpose_invariant(self, m):
        assert rank(m) == rank(transpose(m))

    @_settings
    @given(_matrices, st.integers(-7, 7).filter(bool), st.randoms())
    def test_row_scaling_and_permutation_invariant(self, m, c, rng):
        r = rank(m)
        if m:
            i = rng.randrange(len(m))
            scaled = [[c * x for x in row] if k == i else row
                      for k, row in enumerate(m)]
            assert rank(scaled) == r
        permuted = list(m)
        rng.shuffle(permuted)
        assert rank(permuted) == r
