"""The sparse integer Matrix: rank, product, zero test and row view, each
checked against a dense Fraction oracle."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from adicspec.linalg import Matrix, mat_mul, rank as sparse_rank


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


def rank(rows) -> int:
    return sparse_rank(Matrix.from_rows(rows))


def dense_product(a, b, ncols: int):
    """The product of two dense matrices over Fractions, b of width ncols."""
    return [[sum((Fraction(x) * b[j][c] for j, x in enumerate(row)),
                 Fraction(0)) for c in range(ncols)] for row in a]


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

    @settings(max_examples=200)
    @given(_skinny_matrices, st.sets(st.integers(0, 13), max_size=8))
    def test_skipped_columns_and_leads(self, m, skip):
        # leads come only from eliminating columns, which happens when
        # fewer columns than rows are kept; the rows they name, without
        # the skipped columns, have full rank
        ncols = len(m[0]) if m else 0
        skip = {c for c in skip if c < ncols}
        kept = [[x for c, x in enumerate(row) if c not in skip] for row in m]
        leads = set()
        r = sparse_rank(Matrix.from_rows(m, ncols), skip, leads)
        assert r == gauss_jordan_rank(kept)
        assert len(leads) == (r if ncols - len(skip) < len(m) else 0)
        assert gauss_jordan_rank([kept[i] for i in sorted(leads)]) == \
            len(leads)

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


# a k x m and an m x l matrix, shapes 0 to 6 with zero rows and columns
_products = st.tuples(st.integers(0, 6), st.integers(0, 6),
                      st.integers(0, 6)).flatmap(lambda kml: st.tuples(
                          st.lists(st.lists(_entries, min_size=kml[1],
                                            max_size=kml[1]),
                                   min_size=kml[0], max_size=kml[0]),
                          st.lists(st.lists(_entries, min_size=kml[2],
                                            max_size=kml[2]),
                                   min_size=kml[1], max_size=kml[1]),
                          st.just(kml)))


class TestMatrix:
    @settings(max_examples=100)
    @given(_products)
    def test_product_and_zero_test_match_dense_oracle(self, case):
        a, b, (k, m, l) = case
        A = Matrix.from_rows(a, m)
        product = mat_mul(A, Matrix.from_rows(b, l))
        assert (len(product), product.ncols) == (k, l)
        assert all(all(row.values()) for row in product.rows)
        dense = dense_product(a, b, l)
        assert list(product) == dense
        assert product.is_zero() == all(x == 0 for row in dense for x in row)
        assert A.is_zero() == all(x == 0 for row in a for x in row)

    @settings(max_examples=60)
    @given(_matrices)
    def test_rank_of_gram_matrix_is_the_rank(self, m):
        t = transpose(m)
        M, T = Matrix.from_rows(m), Matrix.from_rows(t, len(m))
        r = sparse_rank(M)
        assert sparse_rank(mat_mul(M, T)) == r == gauss_jordan_rank(m)

    @_settings
    @given(_matrices)
    def test_row_view_is_what_layertrace_reads(self, m):
        # benchmark/layertrace.py reads rank's argument as rows: it counts
        # len(m) * len(m[0]) entries (none for a falsy m) and the nonzero
        # x in every row of the iteration
        M = Matrix.from_rows(m)
        assert len(M) == len(m) and bool(M) == bool(m)
        assert [M[i] for i in range(len(m))] == list(M) == m
        entries = len(M) * len(M[0]) if M else 0
        nonzeros = sum(1 for row in M for x in row if x != 0)
        assert entries == sum(len(row) for row in m)
        assert nonzeros == sum(len(row) for row in M.rows)

    def test_shape_without_rows(self):
        M = Matrix.from_rows([], 3)
        assert (len(M), M.ncols, list(M)) == (0, 3, [])
        assert M.is_zero() and sparse_rank(M) == 0
        assert mat_mul(Matrix.from_rows([[], []]), M) == Matrix([{}, {}], 3)
