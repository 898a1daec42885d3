"""Exact polynomial arithmetic: the Taylor shift against the binomial
formula, and the p-adic absolute value."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicspec import polys
from adicspec.polys import normalize, padic_abs, poly_eval, taylor_shift


def binomial_shift(f: dict, c) -> dict:
    """f(X + c) by expanding every (X + c)^n with binomials over Fractions."""
    c = Fraction(c)
    out: dict = {}
    for n, a in f.items():
        for k in range(n + 1):
            out[k] = out.get(k, Fraction(0)) + a * comb(n, k) * c ** (n - k)
    return normalize(out)


_rationals = st.fractions(min_value=-10 ** 4, max_value=10 ** 4,
                          max_denominator=60)
_polys = st.dictionaries(st.integers(0, 25), _rationals, max_size=8).map(
    normalize)
_centers = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction),
                     _rationals)
_settings = settings(max_examples=100)


class TestTaylorShift:
    def test_examples(self):
        assert taylor_shift({}, Fraction(3)) == {}
        assert taylor_shift({0: Fraction(5)}, Fraction(1, 3)) == {0: Fraction(5)}
        # (X + 1)^2 = X^2 + 2X + 1
        assert taylor_shift({2: Fraction(1)}, 1) == {0: 1, 1: 2, 2: 1}
        # X^2 - 1/4 at c = 1/2: X^2 + X, the constant cancels
        assert taylor_shift({2: Fraction(1), 0: Fraction(-1, 4)},
                            Fraction(1, 2)) == {1: 1, 2: 1}
        # 1/6 X^3 at c = -2/3, denominators of f and of c together
        assert taylor_shift({3: Fraction(1, 6)}, Fraction(-2, 3)) == {
            0: Fraction(-4, 81), 1: Fraction(2, 9), 2: Fraction(-1, 3),
            3: Fraction(1, 6)}

    def test_returns_fractions_in_increasing_degree(self):
        out = taylor_shift({3: Fraction(2, 5), 0: Fraction(1)}, Fraction(7, 4))
        assert list(out) == sorted(out)
        assert all(type(a) is Fraction and a for a in out.values())

    @_settings
    @given(_polys, _centers)
    def test_matches_binomial_formula(self, f, c):
        assert taylor_shift(f, c) == binomial_shift(f, c)

    @_settings
    @given(_polys, _centers, _centers)
    def test_shifts_compose(self, f, a, b):
        assert taylor_shift(taylor_shift(f, a), b) == taylor_shift(f, a + b)

    @_settings
    @given(_polys, _centers, _rationals)
    def test_evaluates_at_shifted_argument(self, f, c, y):
        assert poly_eval(taylor_shift(f, c), y) == poly_eval(f, y + c)


class TestPadicAbs:
    @pytest.mark.parametrize("x,p,expected", [
        (0, 5, 0), (1, 5, 1), (25, 5, Fraction(1, 25)), (Fraction(3, 25), 5, 25),
        (Fraction(-8, 3), 2, Fraction(1, 8)), (Fraction(7, 9), 3, 9),
    ])
    def test_examples(self, x, p, expected):
        assert padic_abs(x, p) == expected
        assert type(padic_abs(x, p)) is Fraction

    @_settings
    @given(_rationals.filter(bool), _rationals.filter(bool),
           st.sampled_from((2, 3, 5, 7)))
    def test_multiplicative_and_ultrametric(self, x, y, p):
        assert padic_abs(x * y, p) == padic_abs(x, p) * padic_abs(y, p)
        assert padic_abs(x + y, p) <= max(padic_abs(x, p), padic_abs(y, p))
        assert padic_abs(x, p) == Fraction(p) ** -polys.padic_exponent(x, p)
