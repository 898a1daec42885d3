"""Cech complexes, quasi-isomorphism, Laurent splitting and exactness."""

import json
import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicspec import cech
from adicspec.cech import (
    FinitePresheaf,
    alternating_subcomplex,
    build_complex,
    cech_complex,
    check_laurent_exactness,
    cohomology,
    constant_presheaf,
    function_presheaf,
    lambda_map,
    laurent,
    laurent_add,
    laurent_invert_variable,
    laurent_mul,
    laurent_split,
    parse_presheaf_text,
    presheaf,
    render_presheaf_text,
)
from adicspec.errors import (
    MAX_WORK,
    AdicError,
    NonFunctorialPresheaf,
    NotAComplex,
    ParseError,
    TooLarge,
    TruncationTooSmall,
    ZeroSeries,
)
from adicspec.linalg import Matrix, mat_mul, rank
from adicspec.tate import parse_series, series
from presheaves import random_presheaf, unimodular_pair


def dense_differential(P, q: int, alternating: bool):
    """d^q entry by entry on dense rows, the common denominator D of the
    restrictions computed afresh from the rationals they stand for: the
    oracle for the built differentials, read through the row view of
    P.res."""
    def tuples(k):
        return (list(combinations(range(P.n), k + 1)) if alternating
                else list(product(range(P.n), repeat=k + 1)))

    def layout(ts):
        offsets, total = {}, 0
        for t in ts:
            offsets[t] = total
            total += P.dims[frozenset(t)]
        return offsets, total

    src, dst = tuples(q), tuples(q + 1)
    src_off, src_dim = layout(src)
    dst_off, dst_dim = layout(dst)
    restrictions = {key: [[Fraction(x, P.scale) for x in row] for row in m]
                    for key, m in P.res.items()}
    scale = lcm(*(x.denominator for m in restrictions.values()
                  for row in m for x in row))
    matrix = [[0] * src_dim for _ in range(dst_dim)]
    for tau in dst:
        S_tau = frozenset(tau)
        for j in range(len(tau)):
            sigma = tau[:j] + tau[j + 1:]
            S_sigma = frozenset(sigma)
            sign = -1 if j % 2 else 1
            r0, c0 = dst_off[tau], src_off[sigma]
            if S_sigma == S_tau:
                for r in range(P.dims[S_tau]):
                    matrix[r0 + r][c0 + r] += sign * scale
                continue
            for r, row in enumerate(restrictions[(S_sigma, S_tau)]):
                for c, x in enumerate(row):
                    matrix[r0 + r][c0 + c] += sign * int(x * scale)
    return matrix, src_dim, dst_dim


class TestBuildComplex:
    # a universe of 1 or 2 points leaves many index sets with F(U) = 0;
    # scaling every restriction by one rational keeps the squares
    # commuting and makes the common denominator D > 1
    @settings(max_examples=40)
    @given(st.integers(1, 3), st.integers(1, 3), st.randoms(),
           st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 2),
                            Fraction(3, 7)]))
    def test_differential_matches_dense_oracle(self, n, universe, rng, c):
        base = random_presheaf(rng, n, universe)
        P = presheaf(n, base.dims,
                     {key: [[c * x for x in row] for row in m]
                      for key, m in base.res.items()})
        for alternating, C in ((False, build_complex(P)),
                               (True, alternating_subcomplex(P))):
            sizes = C.spaces + (C.buffer_dim,)
            for q in range(n):
                matrix = C.diffs[q]
                assert all(all(row.values()) for row in matrix.rows)
                assert (list(matrix), sizes[q], sizes[q + 1]) == \
                    dense_differential(P, q, alternating)

    @settings(max_examples=40)
    @given(st.integers(1, 4), st.integers(1, 3), st.randoms(),
           st.sampled_from([Fraction(1), Fraction(-3, 2)]))
    def test_d_squared_vanishes(self, n, universe, rng, c):
        # the simplicial identity that makes the built complexes complexes;
        # the library does not check it, so the test does
        base = random_presheaf(rng, n, min(universe, 2) if n == 4
                               else universe)
        P = presheaf(n, base.dims,
                     {key: [[c * x for x in row] for row in m]
                      for key, m in base.res.items()})
        for C in (build_complex(P), alternating_subcomplex(P)):
            sizes = C.spaces + (C.buffer_dim,)
            for q, d in enumerate(C.diffs):
                assert (len(d.rows), d.ncols) == (sizes[q + 1], sizes[q])
            for d_prev, d_next in zip(C.diffs, C.diffs[1:]):
                assert mat_mul(d_next, d_prev).is_zero()

    def test_built_complexes_run_no_product(self, monkeypatch):
        P = random_presheaf(random.Random(3), 4, 2)
        calls = []

        def counted(a, b):
            calls.append(1)
            return mat_mul(a, b)

        monkeypatch.setattr(cech, "mat_mul", counted)
        for make in (build_complex, alternating_subcomplex):
            assert len(make(P).diffs) == 4
        assert calls == []
        cech_complex((1, 1), 1, (Matrix.from_rows([[1]]),
                                 Matrix.from_rows([[0]])))
        assert calls == [1]

    def test_trivial_cover(self):
        P = constant_presheaf(1, 1)
        C = build_complex(P)
        assert C.spaces == (1,)
        assert cohomology(C) == [1]

    def test_connected_two_set(self):
        P = constant_presheaf(2, 1)
        assert cohomology(build_complex(P)) == [1, 0]

    def test_disconnected_two_set(self):
        dims = {frozenset({0}): 1, frozenset({1}): 1, frozenset({0, 1}): 0}
        res = {(frozenset({0}), frozenset({0, 1})): [],
               (frozenset({1}), frozenset({0, 1})): []}
        P = presheaf(2, dims, res)
        assert cohomology(build_complex(P))[0] == 2

    def test_non_functorial_rejected(self):
        dims = {frozenset({0}): 1, frozenset({1}): 1, frozenset({2}): 1,
                frozenset({0, 1}): 1, frozenset({0, 2}): 1,
                frozenset({1, 2}): 1, frozenset({0, 1, 2}): 1}
        res = {}
        for S in list(dims):
            for t in range(3):
                if t not in S:
                    res[(S, S | {t})] = [[1]]
        # break one square: composite 0 -> {0,1} -> {0,1,2} gives 2,
        # while 0 -> {0,2} -> {0,1,2} still gives 1
        res[(frozenset({0, 1}), frozenset({0, 1, 2}))] = [[Fraction(2)]]
        with pytest.raises(NonFunctorialPresheaf):
            presheaf(3, dims, res)

    def test_zero_dimensional_middle_is_functorial(self):
        # F({0,1}) = 0 and both restrictions into F({0,1,2}) from {0,2} and
        # {1,2} are zero, so the chains {0} -> {0,1,2} through {0,1} and
        # through {0,2} agree (and likewise from {1})
        def s(*idx):
            return frozenset(idx)
        dims = {s(0): 1, s(1): 1, s(2): 1, s(0, 1): 0, s(0, 2): 1,
                s(1, 2): 1, s(0, 1, 2): 1}
        res = {(s(0), s(0, 1)): [], (s(1), s(0, 1)): [],
               (s(0), s(0, 2)): [[1]], (s(2), s(0, 2)): [[1]],
               (s(1), s(1, 2)): [[1]], (s(2), s(1, 2)): [[1]],
               (s(0, 1), s(0, 1, 2)): [[]], (s(0, 2), s(0, 1, 2)): [[0]],
               (s(1, 2), s(0, 1, 2)): [[0]]}
        P = presheaf(3, dims, res)
        assert cohomology(build_complex(P)) == \
            cohomology(alternating_subcomplex(P))

    def test_rational_restrictions_scaled_to_integers(self):
        # conjugate a function presheaf by rational diagonal changes of
        # basis, so the restrictions carry denominators 2, 3 and 7
        base = function_presheaf(3, [{0, 1, 2}, {1, 2, 3}, {0, 2, 3}])
        scales = [Fraction(1, 2), Fraction(3), Fraction(2, 7), Fraction(7, 3)]
        basis = {S: [scales[(k + i) % 4] for i in range(base.dims[S])]
                 for k, S in enumerate(sorted(base.dims, key=sorted))}
        res = {(S, Sp): [[basis[Sp][i] * x / basis[S][j]
                          for j, x in enumerate(row)]
                         for i, row in enumerate(m)]
               for (S, Sp), m in base.res.items()}
        P = presheaf(3, base.dims, res)
        assert P.scale % 42 == 0
        for make in (build_complex, alternating_subcomplex):
            assert cohomology(make(P)) == cohomology(make(base))

    def test_differential_scales_identity_and_restrictions_alike(self):
        # Q on two sets with both restrictions 1/2, so D = 2; on the tuple
        # (0, 1, 0) the faces (1, 0) and (0, 1) keep the index set (D times
        # the identity) and (0, 0) restricts (D times 1/2), with signs + - +
        dims = {frozenset({0}): 1, frozenset({1}): 1, frozenset({0, 1}): 1}
        res = {(frozenset({i}), frozenset({0, 1})): [[Fraction(1, 2)]]
               for i in (0, 1)}
        C = build_complex(presheaf(2, dims, res))
        matrix = C.diffs[1]
        assert (C.spaces[1], C.buffer_dim) == (4, 8)
        assert matrix[2] == [-1, 2, 2, 0]   # columns (0,0) (0,1) (1,0) (1,1)

    def test_hand_built_complex_is_checked(self):
        # d^0 = (1), d^1 = (1): d^1 o d^0 != 0
        with pytest.raises(NotAComplex):
            cech_complex((1, 1), 1, (Matrix.from_rows([[1]]),
                                     Matrix.from_rows([[1]])))
        assert cech_complex((1, 1), 1, (Matrix.from_rows([[1]]),
                                        Matrix.from_rows([[0]]))).buffer_dim \
            == 1

    def test_hand_built_product_with_one_nonzero_entry_is_checked(self):
        # d^0 is 3 x 3, d^1 is 2 x 3; d^1 o d^0 is zero except in its
        # last row and column, where the nonzero terms of row 1 of d^1
        # leave -1
        d0 = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [1, 0, 1]])
        with pytest.raises(NotAComplex):
            cech_complex((3, 3), 2,
                         (d0, Matrix.from_rows([[0, 0, 0], [1, 5, -1]])))
        # here the nonzero terms cancel: 1 * (1, 0, 0) - 1 * (1, 0, 0)
        d0 = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [1, 0, 0]])
        assert cech_complex(
            (3, 3), 2, (d0, Matrix.from_rows([[1, 7, -1], [0, 0, 0]]))
        ).spaces == (3, 3)

    def test_hand_built_differentials_must_compose(self):
        # d^1 has 3 columns, d^0 only 2 rows
        with pytest.raises(NotAComplex):
            cech_complex((1, 2), 1, (Matrix.from_rows([[0], [0]]),
                                     Matrix.from_rows([[0, 0, 0]])))

    def test_restriction_that_is_not_one_step_rejected(self):
        P = constant_presheaf(3, 1)
        res = {key: [[1]] for key in P.res}
        res[(frozenset({0}), frozenset({0, 1, 2}))] = [[1]]
        with pytest.raises(NonFunctorialPresheaf):
            presheaf(3, P.dims, res)


def plain_cohomology(C):
    """dim C^q - rank d^q - rank d^{q-1}, every rank taken on its own: the
    oracle for the cleared ranks of cohomology."""
    ranks = [0] + [rank(d) for d in C.diffs]
    return [dim - ranks[q + 1] - ranks[q] for q, dim in enumerate(C.spaces)]


@st.composite
def _hand_built_complexes(draw):
    """A complex through cech_complex and its cohomology.  In standard
    bases d^q sends s_q basis vectors of C^q outside im d^{q-1} to nonzero
    multiples of the first s_q of C^{q+1}, so H^q has dimension
    dim C^q - s_q - s_{q-1}; then every C^q keeps that basis or every C^q
    gets a random unimodular one."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=2, max_size=5))
    rng = draw(st.randoms())
    if draw(st.booleans()):
        bases = [unimodular_pair(rng, d) for d in sizes]
    else:
        bases = [(eye, eye) for eye in (Matrix([{i: 1} for i in range(d)], d)
                                        for d in sizes)]
    hit, diffs, expected = 0, [], []
    for q, (dim, nxt) in enumerate(zip(sizes, sizes[1:])):
        s = draw(st.integers(0, min(dim - hit, nxt)))
        factors = draw(st.lists(st.sampled_from([1, -1, 2, 3, -5]),
                                min_size=s, max_size=s))
        d = Matrix([{hit + i: factors[i]} if i < s else {}
                    for i in range(nxt)], dim)
        diffs.append(mat_mul(bases[q + 1][0], mat_mul(d, bases[q][1])))
        expected.append(dim - s - hit)
        hit = s
    return (cech_complex(tuple(sizes[:-1]), sizes[-1], tuple(diffs)),
            expected)


class TestClearedRanks:
    """cohomology skips the columns of d^{q+1} that the pivots of d^q
    settle; each degree must still equal the ranks taken one by one."""

    # four sets weigh thrice: of random presheaves, only the alternating
    # complexes of four sets, about one in ten, tell clearing by the wrong
    # columns from clearing by the right ones
    @settings(max_examples=100)
    @given(st.sampled_from([4, 4, 4, 3, 2, 1]), st.integers(1, 3),
           st.integers(0, 10 ** 6),
           st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 2),
                            Fraction(3, 7)]))
    def test_presheaf_complexes_match_plain_ranks(self, n, universe, seed, c):
        base = random_presheaf(random.Random(seed), n, universe)
        P = presheaf(n, base.dims,
                     {key: [[c * x for x in row] for row in m]
                      for key, m in base.res.items()})
        for C in (build_complex(P), alternating_subcomplex(P)):
            assert cohomology(C) == plain_cohomology(C)

    @settings(max_examples=150)
    @given(_hand_built_complexes())
    def test_hand_built_complexes_match_plain_ranks(self, complex_and_dims):
        C, expected = complex_and_dims
        assert cohomology(C) == plain_cohomology(C) == expected


class TestPresheafDoor:
    """A FinitePresheaf is checked when it is made, however it is built."""

    def test_direct_construction_with_broken_square(self):
        P = constant_presheaf(3, 1)
        res = {**P.res,
               (frozenset({0, 1}), frozenset({0, 1, 2})): Matrix([{0: 2}], 1)}
        with pytest.raises(NonFunctorialPresheaf):
            FinitePresheaf(3, P.dims, 1, res)

    def test_direct_construction_checks_every_entry(self):
        P = constant_presheaf(2, 1)
        key = (frozenset({0}), frozenset({0, 1}))
        for bad in (Matrix([{1: 1}], 1),          # outside the columns
                    Matrix([{0: 0}], 1),          # a stored zero
                    Matrix([{0: Fraction(1, 2)}], 1),
                    Matrix([{0: 1}, {0: 1}], 1),  # two rows for dim 1
                    [[1]]):
            with pytest.raises(NonFunctorialPresheaf):
                FinitePresheaf(2, P.dims, 1, {**P.res, key: bad})
        for scale in (0, -1, Fraction(1)):
            with pytest.raises(NonFunctorialPresheaf):
                FinitePresheaf(2, P.dims, scale, P.res)

    def test_dimensions_are_given_for_exactly_the_index_sets(self):
        P = constant_presheaf(2, 1)
        one, two, both = frozenset({0}), frozenset({1}), frozenset({0, 1})
        for dims in ({one: 1, two: 1},
                     {one: 1, two: 1, both: 1, frozenset({2}): 1},
                     {one: 1, two: 1, frozenset({0, 2}): 1},
                     {one: 1, two: 1, (0, 1): 1},
                     {one: 1, two: 1, both: -1},
                     {one: 1, two: 1, both: Fraction(1)}):
            with pytest.raises(NonFunctorialPresheaf):
                FinitePresheaf(2, dims, 1, P.res)
        for n in (0, -1, 2.0):
            with pytest.raises(NonFunctorialPresheaf):
                FinitePresheaf(n, P.dims, 1, P.res)

    def test_hostile_sizes_refused_before_listing(self):
        for text in ("cover 26\ndim 0 1\n", "cover 1\ndim 0 100000000\n",
                     "cover 1000000000000\n"):
            t0 = time.perf_counter()
            with pytest.raises(TooLarge):
                parse_presheaf_text(text)
            assert time.perf_counter() - t0 < 1
        with pytest.raises(TooLarge):
            constant_presheaf(7, 0)

    def test_long_denominators_refused_as_the_scale_grows(self):
        # 48 kB on two sets of dimension 40, every entry 1/<12 digits>: the
        # first denominator alone puts the complex over the cap
        rng = random.Random(0)
        rows = ["\n".join(" ".join(f"1/{rng.randrange(10 ** 11, 10 ** 12)}"
                                    for _ in range(40)) for _ in range(40))
                for _ in range(2)]
        text = (f"cover 2\ndim 0 40\ndim 1 40\ndim 0,1 40\n"
                f"res 0 0,1\n{rows[0]}\nres 1 0,1\n{rows[1]}\n")
        assert len(text) > 48000
        t0 = time.perf_counter()
        with pytest.raises(TooLarge):
            parse_presheaf_text(text)
        assert time.perf_counter() - t0 < 0.05

    def test_complex_work_cap(self):
        # one set of dimension m costs 125 * 2 * m * (m + 64) * m: C^1 has m
        # rows of two blocks, each m wide, and every entry fits in a byte
        assert 250 * 140 * 204 * 140 <= MAX_WORK < 250 * 141 * 205 * 141
        assert cohomology(build_complex(constant_presheaf(1, 140))) == [140]
        with pytest.raises(TooLarge):
            constant_presheaf(1, 141)
        # an entry, or the scale, of two bytes doubles the work: 2 * 110 *
        # 174 * 110 is inside the cap, twice that is not
        dims = {frozenset({0}): 110}
        assert FinitePresheaf(1, dims, 255, {}).scale == 255
        with pytest.raises(TooLarge):
            FinitePresheaf(1, dims, 256, {})
        assert cohomology(build_complex(constant_presheaf(4, 4))) == \
            [4, 0, 0, 0]


class TestAlternating:
    def test_singleton_cover(self):
        C = alternating_subcomplex(constant_presheaf(1, 2))
        assert C.spaces == (2,)
        assert C.buffer_dim == 0

    def test_three_set_counts(self):
        C = alternating_subcomplex(constant_presheaf(3, 1))
        assert C.spaces == (3, 3, 1)   # C^1 has one block per increasing pair

    def test_quasi_isomorphism_three_sets(self):
        rng = random.Random(5)
        P = random_presheaf(rng, 3)
        assert cohomology(build_complex(P)) == \
            cohomology(alternating_subcomplex(P))

    def test_constant_acyclic(self):
        # every cover of constant coefficients on a connected nerve
        for n in (2, 3):
            for d in (1, 2):
                dims = cohomology(build_complex(constant_presheaf(n, d)))
                assert dims[0] == d
                assert all(x == 0 for x in dims[1:])


class TestFunctionPresheaf:
    def test_dims_are_intersections(self):
        P = function_presheaf(2, [{0, 1}, {1, 2}])
        assert P.dim({0}) == 2 and P.dim({1}) == 2 and P.dim({0, 1}) == 1

    def test_cohomology_counts_components(self):
        # disjoint supports: H^0 sees both pieces
        P = function_presheaf(2, [{0}, {1}])
        assert cohomology(build_complex(P))[0] == 2


class TestPresheafText:
    def test_round_trip(self):
        rng = random.Random(9)
        P = random_presheaf(rng, 2)
        text = render_presheaf_text(P)
        Q = parse_presheaf_text(text)
        assert Q.dims == P.dims
        assert Q.res == P.res

    def test_round_trip_of_rational_restrictions(self):
        P = presheaf(2, {frozenset({0}): 2, frozenset({1}): 1,
                         frozenset({0, 1}): 1},
                     {((0,), (0, 1)): [[Fraction(1, 2), Fraction(-2, 3)]],
                      ((1,), (0, 1)): [[Fraction(5, 4)]]})
        assert P.scale == 12 and list(P.res[(frozenset({0}),
                                             frozenset({0, 1}))]) == [[6, -8]]
        text = render_presheaf_text(P)
        assert "1/2 -2/3" in text and "5/4" in text
        assert parse_presheaf_text(text) == P

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_presheaf_text("dim 0 1\n")
        with pytest.raises(ParseError):
            parse_presheaf_text("cover 1\ndim 0 1\nres 0 0,1\n")
        with pytest.raises(ParseError):   # a zero denominator
            parse_presheaf_text("cover 2\ndim 0 1\ndim 1 1\ndim 0,1 1\n"
                                "res 0 0,1\n1/0\n")

    @pytest.mark.parametrize("text, error", [
        ("cover 1\ndim 0 x\n", ParseError),
        ("cover 1 2\ndim 0 1\n", ParseError),
        ("cover x\n", ParseError),
        ("cover 2\ndim 0 1\ndim 1 1\ndim 0,1 1\nres 0 0,1\n1e-9999999\n",
         ParseError),
        ("cover 2\ndim 0 1\ndim 1 1\ndim 0,1 1\nres 0 0,1\n1.5\n",
         ParseError),
        ("cover 1\ndim 5 1\n", NonFunctorialPresheaf),
        ("cover 1\ndim 0 -2\n", NonFunctorialPresheaf),
        ("cover -1\n", NonFunctorialPresheaf),
        ("cover 0\n", NonFunctorialPresheaf),
        ("cover 1\ndim 0 1\ndim 0 2\n", ParseError),
        ("cover 2\ndim 0 1\ndim 1 1\ndim 0,1 1\nres 0 0,1\n1\n"
         "res 1 0,1\n1\nres 0 0,1\n1\n", ParseError),
    ], ids=["dim-not-a-number", "stray-token", "cover-not-a-number",
            "exponent-entry", "decimal-entry", "index-out-of-range",
            "negative-dim", "negative-cover", "empty-cover", "second-dim",
            "second-res"])
    def test_malformed_text_raises_a_typed_error(self, text, error):
        t0 = time.perf_counter()
        with pytest.raises(error):
            parse_presheaf_text(text)
        assert time.perf_counter() - t0 < 1



    @pytest.mark.parametrize("bad", ["\u0665", "1_1", "\u00b2"])
    @pytest.mark.parametrize("template, good, what", [
        ("cover {}\ndim 0 1\n", "1", "cover size"),
        ("cover 1\ndim {} 1\n", "0", "index"),
        ("cover 1\ndim 0 {}\n", "1", "dimension"),
    ], ids=["cover", "index", "dim"])
    def test_integers_are_ascii_digits(self, template, good, what, bad):
        parse_presheaf_text(template.format(good))
        with pytest.raises(ParseError, match=f"bad {what}"):
            parse_presheaf_text(template.format(bad))
# garbage and hostile presheaf texts: valid texts with lines or single
# tokens replaced, inserted or deleted, and lines of directives with
# random tokens, oversized and malformed numbers among them
_hostile_tokens = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(["0,1", "1,0", "0,1,2", "0,1,2,3,4,5,6", ",", "1/2",
                     "-3/4", "1/0", "1e-9999999", "1.5", "--2", "1_0", "x",
                     "9" * 5000, str(10 ** 8), str(2 ** 64), "26"]),
    st.text(min_size=1, max_size=5))
_hostile_lines = st.one_of(
    st.tuples(st.sampled_from(["cover", "dim", "res"]),
              st.lists(_hostile_tokens, max_size=3))
    .map(lambda t: " ".join([t[0], *t[1]])),
    st.lists(_hostile_tokens, min_size=1, max_size=4).map(" ".join),
    st.text(max_size=12))


@st.composite
def _mutated_texts(draw):
    P = random_presheaf(random.Random(draw(st.integers(0, 99))),
                        draw(st.integers(1, 3)))
    lines = render_presheaf_text(P).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        edit = draw(st.sampled_from(["token", "token", "cover", "line",
                                     "insert", "delete"]))
        if edit == "cover":
            lines[0] = f"cover {draw(_hostile_tokens)}"
        elif edit == "token":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = \
                draw(_hostile_tokens)
            lines[i] = " ".join(tokens)
        elif edit == "line":
            lines[i] = draw(_hostile_lines)
        elif edit == "insert":
            lines.insert(i, draw(_hostile_lines))
        elif i:
            del lines[i]
    return "\n".join(lines)


_hostile_texts = st.one_of(
    _mutated_texts(),
    st.builds(lambda n, lines: "\n".join([f"cover {n}", *lines]),
              _hostile_tokens, st.lists(_hostile_lines, max_size=6)),
    st.builds("cover {}\ndim 0 {}\n".format, _hostile_tokens,
              _hostile_tokens))


class TestPresheafTextFuzz:
    @settings(max_examples=300)
    @given(_hostile_texts)
    def test_only_typed_errors_and_fast(self, text):
        t0 = time.perf_counter()
        try:
            P = parse_presheaf_text(text)
            assert cohomology(build_complex(P)) == \
                cohomology(alternating_subcomplex(P))
        except AdicError:
            pass
        assert time.perf_counter() - t0 < 1


class TestLaurentSplit:
    def test_example(self):
        L = laurent({1: 1, 0: 2, -1: 3})
        g, h = laurent_split(L)
        assert g == laurent({1: 1, 0: 2})
        assert h == laurent({1: -3})
        assert lambda_map(g, h) == L

    def test_zero(self):
        g, h = laurent_split(laurent({}))
        assert g.is_zero() and h.is_zero()

    def test_negative_power(self):
        g, h = laurent_split(laurent({-2: 5}))
        assert g.is_zero() and h == laurent({2: -5})

    def test_section_property(self):
        rng = random.Random(11)
        for _ in range(50):
            L = laurent({d: rng.randint(-5, 5) for d in range(-6, 7)
                         if rng.random() < 0.5})
            g, h = laurent_split(L)
            assert lambda_map(g, h) == L
            assert all(d >= 0 for d, _ in g.coeffs)
            assert all(d >= 1 for d, _ in h.coeffs)

    def test_diagonal_constants_in_kernel(self):
        for c in (1, Fraction(-3, 7), 5):
            assert lambda_map(laurent({0: c}), laurent({0: c})).is_zero()

    def test_polynomial_coefficients(self):
        # coefficients live in Q[T]: (T + z)(T - z) = T^2 - z^2
        a = laurent({0: {1: 1}, 1: 1})
        b = laurent({0: {1: 1}, 1: -1})
        assert laurent_mul(a, b) == laurent({0: {2: 1}, 2: -1})
        g, h = laurent_split(laurent({-1: {1: 2}, 0: {0: 3}}))
        assert g == laurent({0: 3}) and h == laurent({1: {1: -2}})


# Laurent polynomials in zeta over Q[T]: small degrees and small rationals
# keep every product cheap
_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_coefficients = st.dictionaries(st.integers(0, 3), _rationals, max_size=3)
_laurents = st.dictionaries(st.integers(-4, 4), _coefficients,
                            max_size=4).map(laurent)
_law_settings = settings(max_examples=60)


class TestLaurentLaws:
    @_law_settings
    @given(_laurents)
    def test_split_is_a_section_of_lambda(self, L):
        g, h = laurent_split(L)
        assert lambda_map(g, h) == L
        assert all(d >= 0 for d, _ in g.coeffs)
        assert all(d >= 1 for d, _ in h.coeffs)

    @_law_settings
    @given(_laurents, _laurents)
    def test_mul_commutative(self, a, b):
        assert laurent_mul(a, b) == laurent_mul(b, a)

    @_law_settings
    @given(_laurents, _laurents, _laurents)
    def test_mul_associative(self, a, b, c):
        assert (laurent_mul(laurent_mul(a, b), c)
                == laurent_mul(a, laurent_mul(b, c)))

    @_law_settings
    @given(_laurents, _laurents, _laurents)
    def test_mul_distributes_over_add(self, a, b, c):
        assert (laurent_mul(a, laurent_add(b, c))
                == laurent_add(laurent_mul(a, b), laurent_mul(a, c)))

    @_law_settings
    @given(_laurents, _laurents)
    def test_invert_variable_is_multiplicative_involution(self, a, b):
        inv = laurent_invert_variable
        assert inv(inv(a)) == a
        assert inv(laurent_mul(a, b)) == laurent_mul(inv(a), inv(b))


class TestLaurentExactness:
    @pytest.mark.parametrize("ftext", ["T", "5*T+1", "T^2-5"])
    def test_standard_instances(self, ftext):
        rep = check_laurent_exactness(parse_series(ftext, 5), 20)
        assert rep.exact
        assert rep.lambda_rank == 41
        assert rep.kernel_dim == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroSeries):
            check_laurent_exactness(series(5, {}), 20)

    def test_truncation_too_small(self):
        with pytest.raises(TruncationTooSmall):
            check_laurent_exactness(parse_series("T^2-5", 5), 3)

    def test_window_too_large(self):
        with pytest.raises(TooLarge) as exc:
            check_laurent_exactness(parse_series("T^2-5", 5), 1001)
        assert exc.value.code == "too-large"

    def test_window_priced_by_degree_and_bits(self):
        # N * (deg f + 1) * coefficient bits in whole words: (T+1)^7 is
        # 1000 * 8 * 64 at N = 1000, and 10^60 * T + 1, with 200-bit
        # coefficients, 1000 * 2 * 256
        for text in ("(T+1)^900", "(T+1)^300", "(T+1)^7", f"{10 ** 60}*T+1"):
            f = parse_series(text, 5)
            t0 = time.perf_counter()
            with pytest.raises(TooLarge):
                check_laurent_exactness(f, 1000)
            assert time.perf_counter() - t0 < 1
        assert check_laurent_exactness(parse_series("T^2-5", 5), 1000).exact

    @pytest.mark.parametrize(
        "case", json.loads((Path(__file__).parent / "data"
                            / "laurent_reports.json").read_text()),
        ids=lambda case: f"{case['f']}-N{case['N']}")
    def test_report_pinned(self, case):
        # as_dict() and render_text() of reports computed by the earlier
        # implementation with a bivariate dict-of-dicts and a hand-built
        # lambda matrix, for p = 5 and N = deg(f) + 2, 20 and 60
        rep = check_laurent_exactness(parse_series(case["f"], 5), case["N"])
        assert rep.as_dict() == case["as_dict"]
        assert rep.render_text() == case["text"]

    def test_report_renders(self):
        rep = check_laurent_exactness(parse_series("T", 2), 5)
        text = rep.render_text()
        assert "exact: true" in text
        d = rep.as_dict()
        assert d["exact"] is True and d["N"] == 5
