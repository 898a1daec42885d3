"""Exact polynomial arithmetic: the normal form, every operation against
plain degree -> Fraction dict arithmetic, the Taylor shift against the
binomial formula, the p-adic absolute value, the Gauss norm and Newton
slopes read off the normal form, and the text form."""

import time
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicspec import polys, tate
from adicspec.errors import ParseError, TooLarge, ZeroValue
from adicspec.ordgroup import pos_element
from adicspec.polys import (
    MAX_DEGREE,
    ZERO,
    Poly,
    padic_abs,
    parse_poly,
    poly,
    poly_add,
    poly_const,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_neg,
    poly_pow,
    poly_sub,
    poly_sum,
    render_poly,
    taylor_shift,
)
from adicspec.tate import gauss_norm, newton_polygon, parse_series, series
from adicspec.value import nonzero


# --- the oracle: polynomials as plain {degree: nonzero Fraction} dicts -----

def normalize(coeffs: dict) -> dict:
    return {d: Fraction(c) for d, c in coeffs.items() if c != 0}


def dict_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for d, c in g.items():
        out[d] = out.get(d, Fraction(0)) + c
    return normalize(out)


def dict_neg(f: dict) -> dict:
    return {d: -c for d, c in f.items()}


def dict_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for d1, c1 in f.items():
        for d2, c2 in g.items():
            out[d1 + d2] = out.get(d1 + d2, Fraction(0)) + c1 * c2
    return normalize(out)


def dict_pow(f: dict, n: int) -> dict:
    out = {0: Fraction(1)}
    for _ in range(n):
        out = dict_mul(out, f)
    return out


def dict_eval(f: dict, x) -> Fraction:
    x = Fraction(x)
    return sum((c * x ** d for d, c in f.items()), Fraction(0))


def dict_divmod(f: dict, g: dict):
    q: dict = {}
    r = dict(f)
    dg = max(g)
    while r and max(r) >= dg:
        dr = max(r)
        c = r[dr] / g[dg]
        q[dr - dg] = c
        r = dict_add(r, dict_neg(dict_mul({dr - dg: c}, g)))
    return normalize(q), r


def dict_gcd(f: dict, g: dict) -> dict:
    """Monic gcd over Q by the Euclidean algorithm."""
    a, b = dict(f), dict(g)
    while b:
        a, b = b, dict_divmod(a, b)[1]
    return {d: c / a[max(a)] for d, c in a.items()} if a else a


def binomial_shift(f: dict, c) -> dict:
    """f(X + c) by expanding every (X + c)^n with binomials over Fractions."""
    c = Fraction(c)
    out: dict = {}
    for n, a in f.items():
        for k in range(n + 1):
            out[k] = out.get(k, Fraction(0)) + a * comb(n, k) * c ** (n - k)
    return normalize(out)


def as_dict(f: Poly) -> dict:
    return dict(f.items())


_rationals = st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4),
                       st.integers(1, 60))
# signs, zero, and contents far from 1 in both directions
_coefficients = st.builds(lambda q, k: q * Fraction(10) ** k, _rationals,
                          st.just(0) | st.integers(-30, 30))
_dicts = st.dictionaries(st.integers(0, 40), _coefficients, max_size=8)
_small_dicts = st.dictionaries(st.integers(0, 8), _rationals, max_size=4)
_centers = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction),
                     _rationals)
_primes = st.sampled_from((2, 3, 5, 7))
_settings = settings(max_examples=100)


def assert_normal_form(f: Poly) -> None:
    if not f.coeffs:
        assert f.content == 0 and f == ZERO
        return
    assert f.content != 0 and type(f.content) is Fraction
    assert gcd(*f.coeffs) == 1 and f.coeffs[-1] > 0
    assert all(type(e) is int for e in f.coeffs)


class TestNormalForm:
    def test_examples(self):
        assert poly({}) == ZERO == poly({3: 0})
        assert poly({0: Fraction(-3, 2), 2: 6}) == Poly(Fraction(3, 2), (-1, 0, 4))
        assert poly({1: -2}) == Poly(Fraction(-2), (0, 1))
        f = Poly(Fraction(2, 3), (0, 3, 1))
        assert list(f) == [1, 2] and len(f) == 2 and f
        assert f.items() == [(1, 2), (2, Fraction(2, 3))]
        assert (f[0], f[2], f[7]) == (0, Fraction(2, 3), 0)
        assert not ZERO and len(ZERO) == 0 and list(ZERO) == []

    @_settings
    @given(_dicts, _coefficients.filter(bool))
    def test_scaled_input_gives_equal_value_and_hash(self, d, q):
        f = poly(d)
        assert_normal_form(f)
        assert as_dict(f) == normalize(d)
        g = poly({k: q * c for k, c in d.items()})
        assert g == poly_mul(poly_const(q), f)
        assert poly_mul(poly_const(1 / q), g) == f
        assert hash(poly_mul(poly_const(1 / q), g)) == hash(f)


class TestAgainstDictArithmetic:
    @_settings
    @given(_dicts, _dicts)
    def test_add_sub(self, f, g):
        s, t = poly_add(poly(f), poly(g)), poly_sub(poly(f), poly(g))
        assert_normal_form(s)
        assert_normal_form(t)
        assert as_dict(s) == dict_add(normalize(f), normalize(g))
        assert as_dict(t) == dict_add(normalize(f), dict_neg(normalize(g)))
        assert poly_neg(poly_neg(poly(f))) == poly(f)

    @settings(max_examples=50)
    @given(st.lists(_small_dicts, max_size=6))
    def test_sum(self, fs):
        s = poly_sum([poly(f) for f in fs])
        assert_normal_form(s)
        expected: dict = {}
        for f in fs:
            expected = dict_add(expected, normalize(f))
        assert as_dict(s) == expected

    @_settings
    @given(_dicts, _dicts)
    def test_mul(self, f, g):
        h = poly_mul(poly(f), poly(g))
        assert_normal_form(h)
        assert as_dict(h) == dict_mul(normalize(f), normalize(g))

    @_settings
    @given(st.dictionaries(st.integers(0, 40), _coefficients, max_size=4),
           st.integers(0, 5))
    def test_pow(self, f, n):
        h = poly_pow(poly(f), n)
        assert_normal_form(h)
        assert as_dict(h) == dict_pow(normalize(f), n)

    @_settings
    @given(_dicts, _dicts.filter(lambda d: any(d.values())))
    def test_divmod(self, f, g):
        q, r = poly_divmod(poly(f), poly(g))
        assert_normal_form(q)
        assert_normal_form(r)
        assert (as_dict(q), as_dict(r)) == dict_divmod(normalize(f), normalize(g))

    @_settings
    @given(_small_dicts, _small_dicts, _small_dicts)
    def test_gcd(self, a, b, c):
        # a shared factor c makes the gcd nontrivial
        f, g = dict_mul(normalize(a), normalize(c)), dict_mul(normalize(b), normalize(c))
        h = poly_gcd(poly(f), poly(g))
        assert_normal_form(h)
        assert as_dict(h) == dict_gcd(f, g)

    @_settings
    @given(_dicts, _rationals)
    def test_eval(self, f, x):
        assert poly_eval(poly(f), x) == dict_eval(normalize(f), x)
        assert poly_eval(f, x) == dict_eval(normalize(f), x)


class TestTaylorShift:
    def test_examples(self):
        assert taylor_shift(ZERO, Fraction(3)) == ZERO
        assert taylor_shift(poly({0: 5}), Fraction(1, 3)) == poly({0: 5})
        # (X + 1)^2 = X^2 + 2X + 1
        assert as_dict(taylor_shift(poly({2: 1}), 1)) == {0: 1, 1: 2, 2: 1}
        # X^2 - 1/4 at c = 1/2: X^2 + X, the constant cancels
        assert as_dict(taylor_shift(poly({2: 1, 0: Fraction(-1, 4)}),
                                    Fraction(1, 2))) == {1: 1, 2: 1}
        # 1/6 X^3 at c = -2/3, denominators of f and of c together
        assert as_dict(taylor_shift(poly({3: Fraction(1, 6)}),
                                    Fraction(-2, 3))) == {
            0: Fraction(-4, 81), 1: Fraction(2, 9), 2: Fraction(-1, 3),
            3: Fraction(1, 6)}

    def test_returns_fractions_in_increasing_degree(self):
        out = taylor_shift(poly({3: Fraction(2, 5), 0: 1}), Fraction(7, 4))
        assert list(out) == sorted(out)
        assert all(type(a) is Fraction and a for _, a in out.items())

    @_settings
    @given(_dicts, _centers)
    def test_matches_binomial_formula(self, f, c):
        g = taylor_shift(poly(f), c)
        assert_normal_form(g)
        assert as_dict(g) == binomial_shift(normalize(f), c)

    @_settings
    @given(_dicts, _centers, _centers)
    def test_shifts_compose(self, f, a, b):
        f = poly(f)
        assert taylor_shift(taylor_shift(f, a), b) == taylor_shift(f, a + b)

    @_settings
    @given(_dicts, _centers, _rationals)
    def test_evaluates_at_shifted_argument(self, f, c, y):
        f = poly(f)
        assert poly_eval(taylor_shift(f, c), y) == poly_eval(f, y + c)

    def test_zero_centre_is_no_shift(self):
        f = poly({10000: 1, 3: Fraction(-2, 7)})
        assert taylor_shift(f, 0) is f and taylor_shift(f, Fraction(0)) is f

    @pytest.mark.parametrize("deg,c", [(3000, 1), (10000, 1),
                                       (9000, Fraction(1, 2)), (800, 10 ** 40)])
    def test_work_above_the_cap_too_large(self, deg, c):
        t0 = time.perf_counter()
        with pytest.raises(TooLarge):
            taylor_shift(poly({deg: 1, 0: 1}), c)
        assert time.perf_counter() - t0 < 0.1

    def test_work_within_the_cap(self):
        # (T+1)^400 at c = 1/3: about 4e5 units of work
        f = polys.poly_pow(poly({1: 1, 0: 1}), 400)
        assert poly_eval(taylor_shift(f, Fraction(1, 3)), 0) == \
            Fraction(4, 3) ** 400


class TestPadicAbs:
    @pytest.mark.parametrize("x,p,expected", [
        (0, 5, 0), (1, 5, 1), (25, 5, Fraction(1, 25)), (Fraction(3, 25), 5, 25),
        (Fraction(-8, 3), 2, Fraction(1, 8)), (Fraction(7, 9), 3, 9),
    ])
    def test_examples(self, x, p, expected):
        assert padic_abs(x, p) == expected
        assert type(padic_abs(x, p)) is Fraction

    @_settings
    @given(_rationals.filter(bool), _rationals.filter(bool), _primes)
    def test_multiplicative_and_ultrametric(self, x, y, p):
        assert padic_abs(x * y, p) == padic_abs(x, p) * padic_abs(y, p)
        assert padic_abs(x + y, p) <= max(padic_abs(x, p), padic_abs(y, p))
        assert padic_abs(x, p) == Fraction(p) ** -polys.padic_exponent(x, p)

    def test_exponent_of_zero_is_a_typed_error(self):
        with pytest.raises(ZeroValue):
            polys.padic_exponent(Fraction(0), 5)


def repeated_division_exponent(x, p: int) -> int:
    """The exponent of p in x by one division per factor: the oracle."""
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


class TestPadicExponent:
    @settings(max_examples=300)
    @given(st.sampled_from([2, 3, 5, 7, 11, 101, 2 ** 61 - 1]),
           st.integers(-300, 300), st.integers(1, 10 ** 40),
           st.integers(1, 10 ** 40), st.sampled_from([1, -1]))
    def test_matches_repeated_division(self, p, v, unit_num, unit_den, sign):
        x = Fraction(sign * unit_num * p ** max(v, 0),
                     unit_den * p ** max(-v, 0))
        assert polys.padic_exponent(x, p) == repeated_division_exponent(x, p)

    def test_huge_power_in_few_divisions(self):
        # one division per factor takes about 1 s on 10^30000
        t0 = time.perf_counter()
        assert polys.padic_exponent(10 ** 30000, 5) == 30000
        assert polys.padic_exponent(Fraction(3, 7 ** 20001), 7) == -20001
        assert time.perf_counter() - t0 < 0.1


class TestReadOffTheNormalForm:
    @_settings
    @given(_dicts.filter(lambda d: any(d.values())), _primes)
    def test_gauss_norm_is_the_largest_coefficient_norm(self, d, p):
        expected = max(padic_abs(c, p) for c in d.values() if c)
        assert gauss_norm(series(p, d)) == nonzero(pos_element(expected))

    @_settings
    @given(_dicts.filter(lambda d: any(d.values())), _primes)
    def test_newton_vertices_are_coefficient_exponents(self, d, p):
        f = series(p, d)
        vertices = newton_polygon(f).vertices
        assert vertices[0][0] == min(k for k, c in d.items() if c)
        assert vertices[-1][0] == max(k for k, c in d.items() if c)
        for k, v in vertices:
            assert v == polys.padic_exponent(Fraction(d[k]), p)

    @_settings
    @given(st.lists(st.tuples(st.sampled_from((1, 2, 3, 4, 6, 7)),
                              st.integers(-3, 3)), min_size=1, max_size=6),
           _coefficients.filter(bool), st.sampled_from((1, -1)))
    def test_newton_slopes_are_root_valuations(self, roots, scale, sign):
        # prod (T - root) with root = u * 5^k has one root of valuation k
        # per factor, whatever the constant factor in front
        p = 5
        f = series(p, {0: scale})
        for u, k in roots:
            f = tate.series_mul(f, series(p, {1: 1, 0: -sign * u * Fraction(p) ** k}))
        slopes = sorted(s for s, l in newton_polygon(f).slopes for _ in range(l))
        assert slopes == sorted(-Fraction(k) for _, k in roots)


class TestTextForm:
    @_settings
    @given(_dicts)
    def test_render_then_parse_is_identity(self, d):
        f = poly(d)
        assert parse_poly(render_poly(f)) == f

    def test_degree_cap(self):
        assert polys.degree(parse_poly(f"T^{MAX_DEGREE}")) == MAX_DEGREE
        assert polys.degree(parse_poly("T^6000*T^4000")) == MAX_DEGREE
        for text in (f"T^{MAX_DEGREE + 1}", "T^100000000", "(T+1)^100000",
                     "T^6000*T^6000", "(T^100)^101", f"2^{MAX_DEGREE + 1}"):
            with pytest.raises(TooLarge):
                parse_poly(text)

    def test_size_cap(self):
        assert polys.degree(parse_poly("(T+1)^400")) == 400
        for text in ("(T+1)^5000", "(T+1)^2500*(T+1)^2500", "((T+1)^50)^100",
                     "(99999999999^10000)^10000", "9" * 5000):
            with pytest.raises(TooLarge):
                parse_poly(text)

    def test_integer_grammar(self):
        assert [polys.parse_integer(t) for t in ("0", "-17", " 42 ")] == \
            [0, -17, 42]
        for text in ("", "-", "+5", "1_1", "\u0665", "\u00b2", "1.0", "--1", "1 2"):
            with pytest.raises(ParseError):
                polys.parse_integer(text)
        with pytest.raises(TooLarge):
            polys.parse_integer("9" * 5000)
        for text in ("\u00b2", "T^\u00b2", "\u0665*T", "T^\u0663"):
            with pytest.raises(ParseError):
                parse_poly(text)

    def test_long_sum(self):
        # one normalisation for the whole sum, and T^i in closed form:
        # this 27 kB literal took 3.4 s to parse when each + renormalised
        text = "+".join(f"T^{i}" for i in range(1, 4001))
        assert parse_poly(text) == poly({i: 1 for i in range(1, 4001)})
        assert parse_poly("1/2 - T^3 + 2*T^2 - 1/2 + T^3") == poly({2: 2})

    @_settings
    @given(_small_dicts, _small_dicts, st.integers(0, 12))
    def test_size_estimates_bound_the_height(self, d, e, n):
        """The bits the parser estimates for f^n and f*g bound every
        coefficient's numerator and denominator."""
        f, g = poly(d), poly(e)
        terms = min(len(f), len(g))
        for h, bits in ((polys.poly_pow(f, n), n * polys._bits(f, len(f))),
                        (polys.poly_mul(f, g), polys._bits(f, terms) + polys._bits(g))):
            assert all(abs(c.numerator) * c.denominator <= 2 ** bits
                       for _, c in h.items())

    @pytest.mark.parametrize("text,message", [
        # messages of the parser this one replaced, positions included
        ("T+", "unexpected token '' at position 2 in 'T+'"),
        ("(T", "expected ')' at position 2 in '(T'"),
        ("T^-1", "negative exponent at position 4 in 'T^-1'"),
        ("3/-0", "division by zero at position 4 in '3/-0'"),
        (" 2 * ( T - 1 ) ) ", "unexpected token ')' at position 15 in "
                              "' 2 * ( T - 1 ) ) '"),
        ("T^ 2x", "unexpected token 'x' at position 4 in 'T^ 2x'"),
        ("- -T", "unexpected token '-' at position 2 in '- -T'"),
        ("2^-", "expected integer at position 3 in '2^-'"),
    ])
    def test_parse_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_poly(text)
        assert str(exc.value) == message

    def test_parse_series_builds_one_context(self, monkeypatch):
        built = []
        check = tate.PadicContext.__post_init__

        def counting(ctx):
            built.append(ctx.p)
            check(ctx)

        monkeypatch.setattr(tate.PadicContext, "__post_init__", counting)
        f = parse_series("3*T^2 - 1/2*(T+1)^3 + 7 - T*T", 5)
        assert built == [5]
        assert tate.render_series(f) == "-1/2*T^3 + 1/2*T^2 - 3/2*T + 13/2"
