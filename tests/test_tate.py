"""Tate-algebra elements: arithmetic, Gauss norm, Newton polygons."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicspec.errors import (
    AllZero,
    ContextMismatch,
    NotPrime,
    ParseError,
    TooLarge,
    ZeroSeries,
)
from adicspec.ordgroup import pos_element
from adicspec.tate import (
    PSI_13,
    PadicContext,
    TateSeries,
    gauss_norm,
    generates_unit_ideal,
    is_power_bounded,
    is_prime,
    is_top_nilpotent,
    newton_polygon,
    parse_series,
    render_series,
    series,
    series_add,
    series_mul,
    series_pow,
    series_sub,
)
from adicspec.value import ZERO, nonzero, value_mul


def random_series(rng, p, max_deg=12):
    coeffs = {}
    for d in range(rng.randint(0, max_deg) + 1):
        if rng.random() < 0.5:
            num = rng.randint(-50, 50)
            den = rng.randint(1, 50)
            if num:
                coeffs[d] = Fraction(num, den)
    return series(p, coeffs)


def trial_division(n: int) -> bool:
    """The oracle: n is prime iff no d with d^2 <= n divides it."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestContext:
    def test_composite_prime_is_a_typed_error(self):
        with pytest.raises(NotPrime) as exc:
            PadicContext(4)
        assert exc.value.code == "not-prime"

    def test_prime_at_the_bound_is_too_large(self):
        assert PSI_13 == 3317044064679887385961981
        with pytest.raises(TooLarge) as exc:
            PadicContext(PSI_13)
        assert exc.value.code == "too-large"

    def test_large_prime_accepted(self):
        assert PadicContext(1000000000000000003).p == 1000000000000000003


class TestIsPrime:
    @settings(max_examples=300)
    @given(st.one_of(st.integers(-10, 10 ** 6),
                     st.integers((1 << 20) - 3000, (1 << 20) + 3000)))
    def test_agrees_with_trial_division(self, n):
        assert is_prime(n) == trial_division(n)

    def test_every_n_up_to_3000(self):
        assert [n for n in range(3000) if is_prime(n)] == \
            [n for n in range(3000) if trial_division(n)]

    @pytest.mark.parametrize("n", [561, 41041, 825265])
    def test_carmichael_numbers_are_composite(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [
        3215031751,                    # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,           # to the first 9 prime bases
        318665857834031151167461,      # psi_12: to the first 12 prime bases
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [1048573, 1048583, 1000000000039,
                                   1000000000000000003, (1 << 61) - 1])
    def test_large_primes(self, n):
        assert is_prime(n)

    def test_unproven_range_raises(self):
        assert not is_prime(PSI_13 - 1)  # even
        for n in (PSI_13, PSI_13 + 2, 1 << 89):
            with pytest.raises(TooLarge):
                is_prime(n)


class TestArithmetic:
    def test_add_cancels(self):
        f = parse_series("T+5", 5)
        g = parse_series("-T", 5)
        assert series_add(f, g) == parse_series("5", 5)

    def test_difference_of_squares(self):
        f = parse_series("T+5", 5)
        g = parse_series("T-5", 5)
        assert series_mul(f, g) == parse_series("T^2-25", 5)

    def test_square(self):
        f = parse_series("1/5*T + 1", 5)
        assert series_pow(f, 2) == parse_series("1/25*T^2 + 2/5*T + 1", 5)

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            series_add(parse_series("T", 2), parse_series("T", 3))


class TestGaussNorm:
    def test_zero(self):
        assert gauss_norm(series(5, {})).is_zero()

    def test_min_exponent_zero(self):
        f = parse_series("25*T^2 + T + 5", 5)
        assert gauss_norm(f) == nonzero(pos_element(1))

    def test_min_exponent_one(self):
        f = parse_series("5*T + 25", 5)
        assert gauss_norm(f) == nonzero(pos_element(Fraction(1, 5)))

    @pytest.mark.parametrize("p", [2, 5])
    def test_multiplicative(self, p):
        rng = random.Random(p)
        for _ in range(200):
            f, g = random_series(rng, p), random_series(rng, p)
            assert gauss_norm(series_mul(f, g)) == \
                value_mul(gauss_norm(f), gauss_norm(g))

    @pytest.mark.parametrize("p", [2, 5])
    def test_ultrametric_with_equality(self, p):
        from adicspec.value import value_cmp, value_le, value_max
        rng = random.Random(100 + p)
        for _ in range(200):
            f, g = random_series(rng, p), random_series(rng, p)
            s = gauss_norm(series_add(f, g))
            m = value_max(gauss_norm(f), gauss_norm(g))
            assert value_le(s, m)
            if value_cmp(gauss_norm(f), gauss_norm(g)) != 0:
                assert s == m


class TestBoundedness:
    def test_variable(self):
        f = parse_series("T", 5)
        assert is_power_bounded(f) and not is_top_nilpotent(f)

    def test_small(self):
        f = parse_series("5*T", 5)
        assert is_power_bounded(f) and is_top_nilpotent(f)

    def test_large(self):
        f = parse_series("1/5*T", 5)
        assert not is_power_bounded(f) and not is_top_nilpotent(f)


class TestNewtonPolygon:
    def test_ramified(self):
        np_ = newton_polygon(parse_series("T^2-5", 5))
        assert np_.slopes == ((Fraction(-1, 2), 2),)

    def test_single_root(self):
        np_ = newton_polygon(parse_series("T-5", 5))
        assert np_.slopes == ((Fraction(-1), 1),)

    def test_constant(self):
        assert newton_polygon(parse_series("1", 5)).slopes == ()

    def test_collinear_points_make_one_slope(self):
        # the hull drops the collinear (1, 1), so no two slopes are equal
        np_ = newton_polygon(parse_series("1+5*T+25*T^2", 5))
        assert np_.vertices == ((0, 0), (2, 2))
        assert np_.slopes == ((Fraction(1), 2),)

    def test_zero_rejected(self):
        with pytest.raises(ZeroSeries):
            newton_polygon(series(5, {}))

    def test_slopes_of_products_are_unions(self):
        p = 5
        rng = random.Random(41)
        for _ in range(50):
            factors = []
            roots = []
            for _ in range(rng.randint(1, 5)):
                k = rng.randint(-2, 3)
                u = rng.choice([1, 2, 3, 4, 6])  # unit: prime to 5
                root = Fraction(u) * Fraction(p) ** k
                roots.append(k)  # v_p(root) = k
                factors.append(series(p, {1: Fraction(1), 0: -root}))
            prod = factors[0]
            for g in factors[1:]:
                prod = series_mul(prod, g)
            np_ = newton_polygon(prod)
            slope_multiset = sorted(s for s, l in np_.slopes for _ in range(l))
            # slope = -v_p(root)
            assert slope_multiset == sorted(-Fraction(k) for k in roots)

    def test_lengths_sum(self):
        rng = random.Random(43)
        for _ in range(50):
            f = random_series(rng, 2)
            if f.is_zero():
                continue
            np_ = newton_polygon(f)
            degs = sorted(d for d, _ in f.poly.items())
            assert sum(l for _, l in np_.slopes) == degs[-1] - degs[0]


class TestUnitIdeal:
    def test_coprime(self):
        assert generates_unit_ideal(
            [parse_series("T", 5), parse_series("T-1", 5)])

    def test_common_zero_in_disc(self):
        assert not generates_unit_ideal([parse_series("T", 5)])

    def test_nonzero_constant(self):
        assert generates_unit_ideal([parse_series("5", 5)])

    def test_root_outside_disc(self):
        # T - 1/5 has its only root at 1/5, of absolute value 5 > 1
        assert generates_unit_ideal([parse_series("T - 1/5", 5)])

    def test_all_zero(self):
        with pytest.raises(AllZero):
            generates_unit_ideal([series(5, {})])


class TestParser:
    def test_examples(self):
        assert parse_series("5*T+1", 5).as_dict() == {1: Fraction(5), 0: Fraction(1)}
        assert parse_series("(T+1)^2", 5) == parse_series("T^2+2*T+1", 5)
        assert parse_series("-T", 5).as_dict() == {1: Fraction(-1)}
        assert parse_series("3/4", 5).as_dict() == {0: Fraction(3, 4)}

    def test_round_trip(self):
        rng = random.Random(47)
        for _ in range(50):
            f = random_series(rng, 2)
            assert parse_series(render_series(f), 2) == f

    def test_errors(self):
        for bad in ("", "T+", "x", "1/0", "T^-1"):
            with pytest.raises(ParseError):
                parse_series(bad, 5)
