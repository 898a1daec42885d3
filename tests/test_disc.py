"""Points of the adic unit disc: evaluation, classification, subsets."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicspec import polys
from adicspec.disc import (
    DiscPoint,
    PointKind,
    PointType,
    ball,
    classical,
    classify,
    disc_specializes,
    eval_at,
    gauss_point,
    height1_generization,
    in_rational_subset,
    intersect_rational,
    laurent_cover,
    parse_point,
    parse_rational_subset,
    point_eq,
    point_eq_warns,
    rational_cover,
    rational_subset,
    render_point,
    render_rational_subset,
    type5_above,
    type5_below,
)
from adicspec.errors import (
    ContextMismatch,
    MalformedPoint,
    MalformedSubset,
    NotTypeFive,
    NotUnitIdeal,
    ParseError,
    TooLarge,
)
from adicspec.ordgroup import (
    pos_element,
    radius_above_group,
    radius_below_group,
    radius_element,
)
from adicspec.tate import (
    PadicContext,
    gauss_norm,
    parse_series,
    series,
    series_add,
    series_mul,
)
from adicspec.value import ZERO, nonzero, value_cmp, value_le, value_max, value_mul


def random_series(rng, p, max_deg=8):
    coeffs = {}
    for d in range(rng.randint(0, max_deg) + 1):
        if rng.random() < 0.5:
            num = rng.randint(-40, 40)
            if num:
                coeffs[d] = Fraction(num, rng.randint(1, 40))
    return series(p, coeffs)


def point_family(p=2):
    """A mixed family of points of all four kinds."""
    centers = [Fraction(c) for c in (0, 1, 2, 3)] + [Fraction(1, 3), Fraction(2, 3)]
    radii = [Fraction(1), Fraction(1, p), Fraction(1, p ** 2),
             Fraction(3, 4), Fraction(1, 3)]
    pts = [classical(p, c) for c in centers]
    for c in centers:
        for r in radii:
            pts.append(ball(p, c, r))
            pts.append(type5_below(p, c, r))
            if r < 1:
                pts.append(type5_above(p, c, r))
    return pts


class TestConstruction:
    def test_center_outside_disc(self):
        with pytest.raises(MalformedPoint):
            classical(2, Fraction(1, 2))

    def test_above_radius_one_excluded(self):
        with pytest.raises(MalformedPoint):
            type5_above(2, 0, 1)

    def test_radius_range(self):
        with pytest.raises(MalformedPoint):
            ball(2, 0, 2)

    @pytest.mark.parametrize("make,c,r", [
        (ball, 0, 0), (ball, 0, Fraction(-1, 2)), (type5_below, 0, Fraction(3, 2)),
        (type5_above, 0, 0), (type5_above, 1, Fraction(5, 4)),
        (ball, Fraction(1, 3), Fraction(1, 2)),
    ])
    def test_out_of_range_is_malformed_point(self, make, c, r):
        with pytest.raises(MalformedPoint) as exc:
            make(3, c, r)
        assert exc.value.code == "malformed-point"

    @pytest.mark.parametrize("kind,radius", [
        (PointKind.CLASSICAL, Fraction(1, 2)),
        (PointKind.BALL, None),
        (PointKind.TYPE5_BELOW, None),
        (PointKind.TYPE5_ABOVE, None),
    ])
    def test_radius_must_match_kind(self, kind, radius):
        with pytest.raises(MalformedPoint) as exc:
            DiscPoint(PadicContext(3), kind, Fraction(0), radius)
        assert exc.value.code == "malformed-point"

    def test_radius_must_match_kind_under_optimize(self):
        # the check must not vanish with assertions under python -O
        code = ("from fractions import Fraction\n"
                "from adicspec.disc import DiscPoint, PointKind\n"
                "from adicspec.errors import MalformedPoint\n"
                "from adicspec.tate import PadicContext\n"
                "for kind, r in ((PointKind.CLASSICAL, Fraction(1, 2)),\n"
                "                (PointKind.BALL, None)):\n"
                "    try:\n"
                "        DiscPoint(PadicContext(3), kind, Fraction(0), r)\n"
                "    except MalformedPoint as exc:\n"
                "        print(exc.code)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["malformed-point"] * 2


class TestClassification:
    def test_gauss_is_type2(self):
        assert classify(gauss_point(5)) is PointType.TYPE2

    def test_non_power_radius_is_type3(self):
        assert classify(ball(5, 0, Fraction(1, 2))) is PointType.TYPE3

    def test_power_radius_is_type2(self):
        assert classify(ball(5, 0, Fraction(1, 25))) is PointType.TYPE2

    def test_classical_and_type5(self):
        assert classify(classical(5, 0)) is PointType.TYPE1
        assert classify(type5_below(5, 0, 1)) is PointType.TYPE5_BELOW
        assert classify(type5_above(5, 0, Fraction(1, 5))) is PointType.TYPE5_ABOVE


class TestEvaluation:
    def test_gauss_example(self):
        f = parse_series("5*T+1", 5)
        assert eval_at(gauss_point(5), f) == nonzero(pos_element(1))

    def test_classical_example(self):
        f = parse_series("5*T+1", 5)
        assert eval_at(classical(5, 0), f) == nonzero(pos_element(1))

    def test_type5_below_monomial(self):
        G = radius_below_group(Fraction(1))
        assert eval_at(type5_below(5, 0, 1), parse_series("T", 5)) == \
            nonzero(radius_element(G, 1, 1))

    @pytest.mark.parametrize("make,r,poly,q,n", [
        # 1 + T ties at r = 1: below keeps the least index, above the greatest
        # and 1 + T/5 + T^2/25 ties in all three terms at r = 1/5
        (type5_below, Fraction(1), "1+T", 1, 0),
        (type5_below, Fraction(1, 5), "1+1/5*T+1/25*T^2", 1, 0),
        (type5_above, Fraction(1, 5), "1+1/5*T+1/25*T^2", 25, 2),
        (type5_above, Fraction(1, 5), "5+T", 1, 1),
        (type5_above, Fraction(1, 5), "1+T", 1, 0),
    ])
    def test_type5_tie_breaks(self, make, r, poly, q, n):
        x = make(5, 0, r)
        G = (radius_below_group if make is type5_below else radius_above_group)(r)
        assert eval_at(x, parse_series(poly, 5)) == \
            nonzero(radius_element(G, Fraction(q), n))

    def test_gauss_matches_gauss_norm(self):
        rng = random.Random(3)
        x = gauss_point(5)
        for _ in range(100):
            f = random_series(rng, 5)
            assert eval_at(x, f) == gauss_norm(f)

    def test_classical_is_padic_abs_of_value(self):
        rng = random.Random(5)
        for _ in range(100):
            f = random_series(rng, 2)
            c = Fraction(rng.choice([0, 1, 2, 3, 5]))
            got = eval_at(classical(2, c), f)
            v = polys.poly_eval(f.as_dict(), c)
            if v == 0:
                assert got.is_zero()
            else:
                assert got == nonzero(pos_element(polys.padic_abs(v, 2)))

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            eval_at(gauss_point(5), parse_series("T", 2))

    def test_huge_radius_priced_before_any_comparison(self):
        # (N + 1) * N * b * (1 + b // 64), b the bits of the radius: 2.6e9
        # with a 300-digit denominator, 2.8e10 with 1000 digits
        f = parse_series("(T+1)^400", 5)
        x = ball(5, 0, Fraction(1, int("5" * 300)))
        assert eval_at(x, f) == nonzero(pos_element(1))
        t0 = time.perf_counter()
        with pytest.raises(TooLarge):
            eval_at(ball(5, 0, Fraction(1, int("5" * 1000))), f)
        assert time.perf_counter() - t0 < 0.1

    def test_classical_evaluation_priced_before_horner(self):
        # the golden corpus and the benchmark evaluate at centres with
        # numerators under 1000 and denominators under 200, of degree at
        # most 140; T^400 + 1 at a 4000-digit centre took 7 s to 9 s
        c, f = Fraction(-999, 199), series(5, {k: 1 for k in range(141)})
        assert eval_at(classical(5, c), f) == \
            nonzero(pos_element(polys.padic_abs(polys.poly_eval(f.poly, c), 5)))
        t0 = time.perf_counter()
        with pytest.raises(TooLarge):
            eval_at(classical(5, int("7" * 4000)), parse_series("T^400+1", 5))
        assert time.perf_counter() - t0 < 0.1

    def test_recentred_at_the_smallest_center(self, monkeypatch):
        # at p = 3, -7/5 = 1 mod 3: D(-7/5, 1/3) = D(1, 1/3), the closed disc
        # of radius 1 is D(0, 1) and the open one D(1, 1-); modulo 9 the
        # residue 7 is longer than -7/5, which is kept
        f = parse_series("(T+1)^3", 3)
        c, calls, real = Fraction(-7, 5), [], polys.taylor_shift
        monkeypatch.setattr(polys, "taylor_shift",
                            lambda g, c: calls.append(c) or real(g, c))
        for x in (ball(3, c, Fraction(1, 3)), ball(3, c, 1),
                  type5_below(3, c, 1), ball(3, c, Fraction(1, 9))):
            eval_at(x, f)
        assert calls == [1, 0, 1, c]

    @pytest.mark.parametrize("x", [
        classical(2, 1), ball(2, 0, Fraction(3, 4)), gauss_point(2),
        type5_below(2, 1, Fraction(1, 2)), type5_above(2, 0, Fraction(1, 4))])
    def test_evaluation_is_a_valuation(self, x):
        from adicspec.tate import series_add, series_mul
        rng = random.Random(7)
        for _ in range(100):
            f, g = random_series(rng, 2), random_series(rng, 2)
            vf, vg = eval_at(x, f), eval_at(x, g)
            assert eval_at(x, series_mul(f, g)) == value_mul(vf, vg)
            s = eval_at(x, series_add(f, g))
            assert value_le(s, value_max(vf, vg))
            if value_cmp(vf, vg) != 0:
                assert s == value_max(vf, vg)

    def test_ball_center_independence(self):
        rng = random.Random(9)
        for _ in range(50):
            f = random_series(rng, 2)
            r = Fraction(1, 2)
            # |0 - 2|_2 = 1/2 <= r: same closed disc
            assert eval_at(ball(2, 0, r), f) == eval_at(ball(2, 2, r), f)

    def test_monotone_in_radius(self):
        rng = random.Random(11)
        radii = [Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
        for _ in range(50):
            f = random_series(rng, 2)
            vals = [eval_at(ball(2, 0, r), f) for r in radii]
            for a, b in zip(vals, vals[1:]):
                assert value_le(a, b)

    def test_specialization_sandwich(self):
        from adicspec.ordgroup import quotient_by_convex, radius_real_subgroup
        rng = random.Random(13)
        c, r = Fraction(1), Fraction(1, 2)
        below, mid, above = (type5_below(2, c, r), ball(2, c, r),
                             type5_above(2, c, r))
        for _ in range(50):
            f = random_series(rng, 2)
            vm = eval_at(mid, f)
            for x in (below, above):
                vx = eval_at(x, f)
                if vx.is_zero():
                    assert vm.is_zero()
                    continue
                G = vx.elt.group
                _, proj = quotient_by_convex(G, radius_real_subgroup(G))
                assert proj(vx.elt).payload == vm.elt.payload


# points of all four kinds at p = 2, 3, 5: centers are p-adic integers with
# small numerators and denominators, radii are powers of p or other rationals
_PRIMES = (2, 3, 5)
_MAKERS = {PointKind.CLASSICAL: classical, PointKind.BALL: ball,
           PointKind.TYPE5_BELOW: type5_below, PointKind.TYPE5_ABOVE: type5_above}


@st.composite
def _points(draw, kind):
    p = draw(st.sampled_from(_PRIMES))
    den = draw(st.integers(1, 12).filter(lambda d: d % p))
    c = draw(st.one_of(st.just(Fraction(0)),
                       st.integers(-30, 30).map(lambda a: Fraction(a, den))))
    if kind is PointKind.CLASSICAL:
        return classical(p, c)
    least = 1 if kind is PointKind.TYPE5_ABOVE else 0   # above needs r < 1
    r = draw(st.one_of(
        st.integers(least, 3).map(lambda m: Fraction(1, p ** m)),
        st.fractions(min_value=0, max_value=1, max_denominator=12).filter(
            lambda r: 0 < r < 1)))
    return _MAKERS[kind](p, c, r)


def _series(p):
    """Polynomials of degree <= 6 at the prime p.  Half the coefficients
    are small units times powers of p, so that terms |a_n| r^n often tie at
    radii in p^Z and the type-5 tie-breaks are exercised."""
    coefficient = st.one_of(
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
        st.builds(lambda u, k: u * Fraction(p) ** k,
                  st.sampled_from([-3, -2, -1, 1, 2, 3, 4, 6, 7]),
                  st.integers(-2, 3)))
    return st.dictionaries(st.integers(0, 6), coefficient, max_size=5).map(
        lambda coeffs: series(p, coeffs))


_eval_settings = settings(max_examples=50)


class TestEvaluationLaws:
    """|.|_x is a valuation for every point x: multiplicative and
    ultrametric, whatever the center, the radius and the kind."""

    @pytest.mark.parametrize("kind", list(PointKind))
    @_eval_settings
    @given(data=st.data())
    def test_multiplicative(self, kind, data):
        x = data.draw(_points(kind))
        f, g = data.draw(_series(x.ctx.p)), data.draw(_series(x.ctx.p))
        assert eval_at(x, series_mul(f, g)) == value_mul(eval_at(x, f),
                                                         eval_at(x, g))

    @pytest.mark.parametrize("kind", list(PointKind))
    @_eval_settings
    @given(data=st.data())
    def test_ultrametric(self, kind, data):
        x = data.draw(_points(kind))
        f, g = data.draw(_series(x.ctx.p)), data.draw(_series(x.ctx.p))
        vf, vg = eval_at(x, f), eval_at(x, g)
        assert value_le(eval_at(x, series_add(f, g)), value_max(vf, vg))


def _oracle_eval_at(x, f):
    """eval_at by its definition: f(X + c) at the center c as given, its
    coefficients from the binomial theorem, and the terms |a_n| r^n as
    Fractions; g slightly below r takes the least index among the largest
    terms, above r the greatest."""
    p = x.ctx.p
    if x.kind is PointKind.CLASSICAL:
        v = polys.poly_eval(f.poly, x.center)
        return ZERO if v == 0 else nonzero(pos_element(polys.padic_abs(v, p)))
    if f.is_zero():
        return ZERO
    coeffs = dict(f.poly.items())
    shifted = {k: sum(a * comb(n, k) * x.center ** (n - k)
                      for n, a in coeffs.items() if n >= k)
               for k in range(max(coeffs) + 1)}
    terms = {n: polys.padic_abs(a, p) * x.radius ** n
             for n, a in shifted.items() if a}
    best = max(terms.values())
    ties = [n for n, term in terms.items() if term == best]
    n = ties[-1] if x.kind is PointKind.TYPE5_ABOVE else ties[0]
    if x.kind is PointKind.BALL:
        return nonzero(pos_element(best))
    group = radius_below_group if x.kind is PointKind.TYPE5_BELOW \
        else radius_above_group
    return nonzero(radius_element(group(x.radius), polys.padic_abs(
        shifted[n], p), n))


_ORACLE_PRIMES = (2, 3, 5, 7)
# Hypothesis draws the first kinds most often: the type-5 points, whose tie
# rules and open discs are the subtle cases, come first
_ORACLE_KINDS = (PointKind.TYPE5_BELOW, PointKind.TYPE5_ABOVE, PointKind.BALL,
                 PointKind.CLASSICAL)
_long = st.integers(-10 ** 40, 10 ** 40)


@st.composite
def _long_points(draw, p, kind):
    """Points at the prime p with centers of 40-digit numerators and
    denominators, and radii of up to 40 digits; half the radii are 1 or
    powers of p, where terms tie."""
    # digits from a seeded generator: drawn integers cluster at the bounds,
    # whose low p-adic digits are mostly 0
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    num, den = (rnd.randrange(10 ** 39, 10 ** 40) for _ in range(2))
    c = Fraction(rnd.choice([-num, num]), den + (den % p == 0)) * p ** (
        rnd.choice([0, 0, 1, 2]))
    if kind is PointKind.CLASSICAL:
        return classical(p, c)
    r = draw(st.one_of(
        st.integers(0, 6).map(lambda m: Fraction(1, p ** m)),
        st.builds(Fraction, st.integers(1, 10 ** 40), st.integers(1, 10 ** 40))
        .filter(lambda r: r <= 1)).filter(
            lambda r: r < 1 or kind is not PointKind.TYPE5_ABOVE))
    return _MAKERS[kind](p, c, r)


def _disc_step(x):
    """p^k for the largest p^-k at most r, or below r for the open disc of
    a Type5Below point: moving the center by a multiple of p^k keeps the
    disc.  1 for a classical point."""
    pk = 1
    while x.radius and (pk * x.radius < 1 or (
            x.kind is PointKind.TYPE5_BELOW and pk * x.radius == 1)):
        pk *= x.ctx.p
    return pk


def _long_series(x):
    """Polynomials of degree <= 30 at x's prime: long rational
    coefficients, and small units times powers of p, whose terms often
    tie, times one or two factors T - a with a just inside or outside x's
    disc, which tell nearby discs apart."""
    p = x.ctx.p
    coefficient = st.one_of(
        st.builds(Fraction, _long.filter(bool), st.integers(1, 10 ** 40)),
        st.builds(lambda u, k: u * Fraction(p) ** k,
                  st.sampled_from([-3, -2, -1, 1, 2, 3, 4, 6]),
                  st.integers(-3, 3)))
    root = st.builds(
        lambda k, m: series(p, {1: 1, 0: -x.center - m * _disc_step(x)
                                * Fraction(p) ** k}),
        st.integers(-2, 3), st.integers(-p * p, p * p))
    return st.builds(lambda coeffs, roots: reduce(series_mul, roots,
                                                  series(p, coeffs)),
                     st.dictionaries(st.integers(0, 28), coefficient,
                                     min_size=1, max_size=12),
                     st.lists(root, min_size=1, max_size=2))


class TestEvaluationOracle:
    """eval_at recentres in the disc and compares integers; the values
    are those of the definition."""

    @pytest.mark.parametrize("p", _ORACLE_PRIMES)
    @settings(max_examples=100)
    @given(data=st.data())
    def test_equals_the_definition(self, p, data):
        x = data.draw(_long_points(p, data.draw(st.sampled_from(
            _ORACLE_KINDS))))
        f = data.draw(_long_series(x))
        assert eval_at(x, f) == _oracle_eval_at(x, f)

    @pytest.mark.parametrize("p", _ORACLE_PRIMES)
    @settings(max_examples=60)
    @given(data=st.data())
    def test_equal_points_take_equal_values(self, p, data):
        kind = data.draw(st.sampled_from(_ORACLE_KINDS[:3]))
        x = data.draw(_long_points(p, kind))
        den = data.draw(st.integers(1, 10 ** 20).filter(lambda d: d % p))
        shift = Fraction(data.draw(st.integers(-10 ** 20, 10 ** 20)), den)
        y = _MAKERS[kind](p, x.center + _disc_step(x) * shift, x.radius)
        assert point_eq(x, y)
        f = data.draw(_long_series(x))
        assert eval_at(x, f) == eval_at(y, f) == _oracle_eval_at(y, f)


class TestEquality:
    def test_ball_depends_on_disc(self):
        assert point_eq(ball(5, 0, Fraction(1, 5)), ball(5, 5, Fraction(1, 5)))

    def test_below_needs_open_disc(self):
        assert not point_eq(type5_below(5, 0, Fraction(1, 5)),
                            type5_below(5, 5, Fraction(1, 5)))

    def test_reflexive(self):
        for x in point_family():
            assert point_eq(x, x)

    def test_warning_flag(self):
        assert point_eq_warns(type5_below(5, 0, Fraction(1, 2)), gauss_point(5))
        assert not point_eq_warns(type5_below(5, 0, Fraction(1, 5)),
                                  gauss_point(5))


class TestSpecialization:
    def test_type5_below_gauss(self):
        assert disc_specializes(type5_below(5, 0, 1), gauss_point(5))

    def test_classical_not_in_gauss_closure(self):
        assert not disc_specializes(classical(5, 0), gauss_point(5))

    def test_reflexive(self):
        for x in point_family():
            assert disc_specializes(x, x)

    def test_type3_is_closed(self):
        r = Fraction(1, 3)
        assert not disc_specializes(type5_below(2, 0, r), ball(2, 0, r))


class TestHeight1Generization:
    def test_below_gauss(self):
        assert point_eq(height1_generization(type5_below(5, 0, 1)),
                        gauss_point(5))

    def test_above(self):
        assert point_eq(height1_generization(type5_above(5, 0, Fraction(1, 5))),
                        ball(5, 0, Fraction(1, 5)))

    def test_ball_rejected(self):
        with pytest.raises(NotTypeFive):
            height1_generization(gauss_point(5))

    def test_specializes_to_result(self):
        x = type5_above(2, 1, Fraction(1, 2))
        assert disc_specializes(x, height1_generization(x))


class TestRationalSubsets:
    def test_gauss_in_unit_numerator(self):
        R = parse_rational_subset("R(T;1)", 5)
        assert in_rational_subset(gauss_point(5), R)

    def test_denominator_vanishes(self):
        R = parse_rational_subset("R(1;T)", 5)
        assert not in_rational_subset(classical(5, 0), R)
        assert in_rational_subset(gauss_point(5), R)

    def test_malformed(self):
        R = rational_subset((parse_series("T", 5),), parse_series("T^2", 5))
        with pytest.raises(MalformedSubset):
            in_rational_subset(gauss_point(5), R)

    def test_intersection_agrees_pointwise(self):
        p = 2
        R1 = parse_rational_subset("R(T;1)", p)
        R2 = parse_rational_subset("R(1;T)", p)
        R12 = intersect_rational(R1, R2)
        for x in point_family(p)[:50]:
            both = in_rational_subset(x, R1) and in_rational_subset(x, R2)
            assert in_rational_subset(x, R12) == both

    def test_intersection_example_memberships(self):
        R12 = intersect_rational(parse_rational_subset("R(T;1)", 5),
                                 parse_rational_subset("R(1;T)", 5))
        assert in_rational_subset(gauss_point(5), R12)
        assert not in_rational_subset(classical(5, 0), R12)

    def test_round_trip(self):
        R = parse_rational_subset("R(T,5*T^2;T-1)", 5)
        assert parse_rational_subset(render_rational_subset(R), 5) == R


class TestCovers:
    def test_laurent_members(self):
        cov = laurent_cover(parse_series("T", 5))
        assert len(cov.members) == 2
        # the first member {|T| <= 1} is the whole disc
        for x in point_family(5)[:30]:
            assert in_rational_subset(x, cov.members[0])

    def test_laurent_covers_every_point(self):
        cov = laurent_cover(parse_series("5*T+1", 5))
        for x in point_family(5):
            assert any(in_rational_subset(x, m) for m in cov.members)

    def test_rational_cover_memberships(self):
        cov = rational_cover([parse_series("T", 5), parse_series("T-1", 5)])
        x = classical(5, 0)
        assert not in_rational_subset(x, cov.members[0])
        assert in_rational_subset(x, cov.members[1])

    def test_rational_cover_rejects_common_zero(self):
        with pytest.raises(NotUnitIdeal):
            rational_cover([parse_series("T", 5)])


class TestLiterals:
    def test_round_trip(self):
        for x in point_family():
            assert parse_point(render_point(x), 2) == x

    def test_type4_rejected(self):
        with pytest.raises(ParseError, match="type-4"):
            parse_point("deadend:0", 2)

    def test_bad_literals(self):
        for bad in ("ball:0", "classical:x", "orbit:1,2"):
            with pytest.raises(ParseError):
                parse_point(bad, 2)

    @pytest.mark.parametrize("text", [
        "classical:1/2", "ball:0,2", "ball:0,0", "below:1,3/2", "above:0,1",
    ])
    def test_out_of_range_literal_is_parse_error(self, text):
        with pytest.raises(ParseError) as exc:
            parse_point(text, 2)
        assert isinstance(exc.value.__cause__, MalformedPoint)
