"""Valuations: evaluation, support, equivalence, specialization calculus."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicspec import polys
from adicspec.disc import classical, gauss_point, type5_below
from adicspec.errors import (
    CharacteristicGroupNotContained,
    MalformedIdeal,
    MalformedValuation,
    NotContinuous,
    NotPrime,
    ParseError,
    UnsupportedKind,
    WrongRing,
)
from adicspec.ordgroup import (
    full_subgroup,
    is_full_subgroup,
    is_trivial_subgroup,
    pos_element,
    pos_rational_group,
    trivial_group,
    trivial_subgroup,
    unit,
)
from adicspec.valuation import (
    RING_Q,
    RING_QRAT,
    RING_QT,
    RING_Z,
    IdealKind,
    IdealOfDefinition,
    PrimeIdealDescriptor,
    ValuationKind,
    c_gamma_I,
    characteristic_group,
    degree_valuation,
    disc_point_valuation,
    equivalent,
    finite_field,
    eval_valuation,
    horizontal_restrict,
    is_analytic,
    is_continuous,
    padic_valuation,
    parse_ideal,
    parse_valuation,
    ratfunc,
    render_ideal,
    render_ideal_descriptor,
    render_valuation,
    retract,
    specializes,
    support,
    trivial_valuation,
    value_group,
    vertical_quotient,
)
from adicspec.value import (
    nonzero,
    value_cmp,
    value_in_subgroup,
    value_le,
    value_max,
    value_mul,
)

TRIV0_Z = trivial_valuation(RING_Z, PrimeIdealDescriptor.zero())
TRIV5_Z = trivial_valuation(RING_Z, PrimeIdealDescriptor.prime(5))
P5_Z = padic_valuation(RING_Z, 5)
P5_Q = padic_valuation(RING_Q, 5)


class TestEval:
    def test_padic(self):
        assert eval_valuation(P5_Q, 50) == nonzero(pos_element(Fraction(1, 25)))

    def test_trivial(self):
        v = trivial_valuation(RING_Q, PrimeIdealDescriptor.zero())
        assert eval_valuation(v, 7) == nonzero(unit(trivial_group()))
        assert eval_valuation(v, 0).is_zero()

    def test_degree(self):
        v = degree_valuation(Fraction(1, 2))
        a = ratfunc({2: Fraction(1), 0: Fraction(1)}, {3: Fraction(1)})
        assert eval_valuation(v, a) == nonzero(pos_element(Fraction(1, 2)))

    def test_trivial_at_support(self):
        assert eval_valuation(TRIV5_Z, 10).is_zero()
        assert eval_valuation(TRIV5_Z, 3) == nonzero(unit(trivial_group()))

    @pytest.mark.parametrize("v", [P5_Z, P5_Q, TRIV0_Z, TRIV5_Z])
    def test_axioms_on_integers(self, v):
        rng = random.Random(3)
        for _ in range(100):
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            va, vb = eval_valuation(v, a), eval_valuation(v, b)
            assert eval_valuation(v, a * b) == value_mul(va, vb)
            s = eval_valuation(v, a + b)
            assert value_le(s, value_max(va, vb))
            if value_cmp(va, vb) != 0:
                assert s == value_max(va, vb)
            assert eval_valuation(v, -a) == va


class TestSupport:
    def test_padic_zero_support(self):
        assert support(P5_Z).kind is IdealKind.ZERO_IDEAL

    def test_trivial(self):
        assert support(TRIV5_Z) == PrimeIdealDescriptor.prime(5)

    def test_horizontal_restriction_grows_support(self):
        w = horizontal_restrict(P5_Z, trivial_subgroup(pos_rational_group()))
        assert support(w) == PrimeIdealDescriptor.prime(5)


class TestEquivalence:
    def test_rho_irrelevant(self):
        assert equivalent(padic_valuation(RING_Q, 5, Fraction(1, 5)),
                          padic_valuation(RING_Q, 5, Fraction(1, 2)))

    def test_distinct_primes(self):
        assert not equivalent(padic_valuation(RING_Z, 5),
                              padic_valuation(RING_Z, 7))

    def test_reflexive(self):
        for v in (P5_Z, TRIV0_Z, TRIV5_Z):
            assert equivalent(v, v)

    def test_wrong_ring(self):
        with pytest.raises(WrongRing):
            equivalent(P5_Z, P5_Q)

    def test_equivalence_relation_on_pool(self):
        pool = [P5_Z, padic_valuation(RING_Z, 5, Fraction(1, 3)),
                padic_valuation(RING_Z, 7), TRIV0_Z, TRIV5_Z,
                trivial_valuation(RING_Z, PrimeIdealDescriptor.prime(7))]
        for a in pool:
            for b in pool:
                assert equivalent(a, b) == equivalent(b, a)
                for c in pool:
                    if equivalent(a, b) and equivalent(b, c):
                        assert equivalent(a, c)


class TestCharacteristicGroup:
    def test_padic_on_field(self):
        assert is_full_subgroup(characteristic_group(P5_Q))

    def test_padic_on_z(self):
        assert is_trivial_subgroup(characteristic_group(P5_Z))

    def test_trivial(self):
        assert is_trivial_subgroup(characteristic_group(TRIV5_Z))


class TestVerticalQuotient:
    def test_by_trivial(self):
        G = pos_rational_group()
        assert vertical_quotient(P5_Z, trivial_subgroup(G)) == P5_Z

    def test_by_full(self):
        G = pos_rational_group()
        w = vertical_quotient(P5_Z, full_subgroup(G))
        assert w.kind is ValuationKind.TRIVIAL
        assert w.supp.kind is IdealKind.ZERO_IDEAL

    def test_disc_point(self):
        from adicspec.disc import gauss_point, point_eq, type5_below
        from adicspec.ordgroup import radius_real_subgroup
        v = disc_point_valuation(type5_below(5, 0, 1))
        H = radius_real_subgroup(value_group(v))
        w = vertical_quotient(v, H)
        assert point_eq(w.point, gauss_point(5))


class TestHorizontalRestrict:
    def test_padic_z_to_trivial(self):
        w = horizontal_restrict(P5_Z, trivial_subgroup(pos_rational_group()))
        assert w.kind is ValuationKind.TRIVIAL
        assert w.supp == PrimeIdealDescriptor.prime(5)

    def test_full_is_identity(self):
        assert horizontal_restrict(P5_Z, full_subgroup(pos_rational_group())) == P5_Z

    def test_field_case_rejected(self):
        with pytest.raises(CharacteristicGroupNotContained):
            horizontal_restrict(P5_Q, trivial_subgroup(pos_rational_group()))

    @settings(max_examples=200)
    @given(st.sampled_from([p for p in range(2, 100)
                            if all(p % d for d in range(2, p))]),
           st.integers(-10 ** 6, 10 ** 6))
    def test_restriction_to_trivial_follows_the_definition(self, p, n):
        """v|_H(n) is v(n) when v(n) lies in H, and zero otherwise."""
        v = padic_valuation(RING_Z, p)
        H = trivial_subgroup(pos_rational_group())
        value = eval_valuation(horizontal_restrict(v, H), n)
        if value_in_subgroup(eval_valuation(v, n), H):
            assert value == nonzero(unit(trivial_group()))
        else:
            assert value.is_zero()
        assert value.is_zero() == (n % p == 0)


class TestCGammaI:
    def test_padic_z(self):
        I = parse_ideal("(5)", RING_Z)
        assert is_full_subgroup(c_gamma_I(P5_Z, I))

    def test_trivial_zero_support(self):
        I = parse_ideal("(5)", RING_Z)
        assert is_trivial_subgroup(c_gamma_I(TRIV0_Z, I))

    def test_ideal_killed(self):
        I = parse_ideal("(5)", RING_Z)
        assert is_full_subgroup(c_gamma_I(TRIV5_Z, I))


class TestRetract:
    def test_padic_fixed(self):
        I = parse_ideal("(5)", RING_Z)
        assert equivalent(retract(P5_Z, I), P5_Z)

    def test_trivial_zero_fixed(self):
        # v(5) = 1 lies in the characteristic group, so the restriction
        # keeps every value and the valuation is already a member
        I = parse_ideal("(5)", RING_Z)
        assert equivalent(retract(TRIV0_Z, I), TRIV0_Z)

    def test_other_prime_moves(self):
        I = parse_ideal("(7)", RING_Z)
        r = retract(P5_Z, I)
        assert r.kind is ValuationKind.TRIVIAL
        assert r.supp == PrimeIdealDescriptor.prime(5)

    def test_idempotent(self):
        for text in ("(5)", "(7)", "(35)"):
            I = parse_ideal(text, RING_Z)
            for v in (P5_Z, TRIV0_Z, TRIV5_Z):
                r = retract(v, I)
                assert equivalent(retract(r, I), r)


_small_primes = st.sampled_from((2, 3, 5, 7, 11))


@st.composite
def _valuation_and_ideal(draw):
    """A valuation on Z or Q (p-adic or trivial) and an ideal whose
    generators are products of small primes, or 0."""
    ring = draw(st.sampled_from((RING_Z, RING_Q)))
    q = draw(_small_primes)
    supports = [PrimeIdealDescriptor.zero()]
    if ring is RING_Z:
        supports.append(PrimeIdealDescriptor.prime(q))
    v = draw(st.one_of(st.just(padic_valuation(ring, q)),
                       st.sampled_from(supports).map(
                           lambda P: trivial_valuation(ring, P))))
    gens = draw(st.lists(st.one_of(
        st.just(0), st.lists(_small_primes, min_size=1, max_size=3).map(prod)),
        min_size=1, max_size=2))
    return v, parse_ideal("(" + ",".join(map(str, gens)) + ")", ring)


class TestRetractProperty:
    @settings(max_examples=50)
    @given(_valuation_and_ideal())
    def test_idempotent(self, v_and_I):
        v, I = v_and_I
        r = retract(v, I)
        assert equivalent(retract(r, I), r)


class TestContinuity:
    def test_padic_q(self):
        assert is_continuous(P5_Q, parse_ideal("(5)", RING_Q))

    def test_trivial_not_continuous(self):
        v = trivial_valuation(RING_Q, PrimeIdealDescriptor.zero())
        assert not is_continuous(v, parse_ideal("(5)", RING_Q))

    def test_zero_ideal_discrete(self):
        for v in (P5_Z, TRIV0_Z):
            assert is_continuous(v, parse_ideal("(0)", RING_Z))

    def test_analytic(self):
        assert is_analytic(P5_Q, parse_ideal("(5)", RING_Q))
        assert not is_analytic(TRIV5_Z, parse_ideal("(5)", RING_Z))
        assert not is_analytic(P5_Z, parse_ideal("(0)", RING_Z))

    def test_analytic_needs_continuity(self):
        v = trivial_valuation(RING_Q, PrimeIdealDescriptor.zero())
        with pytest.raises(NotContinuous):
            is_analytic(v, parse_ideal("(5)", RING_Q))


def in_subbasic(v, f, s) -> bool:
    """Membership in the subbasic open {|f| <= |s| != 0}."""
    vs = eval_valuation(v, s)
    return not vs.is_zero() and value_le(eval_valuation(v, f), vs)


def subbasic_witness(v, w, family):
    """An open {|f| <= |s| != 0} with f, s in the family that holds v and
    not w, or None when every such open holding v also holds w."""
    return next(((f, s) for f in family for s in family
                 if in_subbasic(v, f, s) and not in_subbasic(w, f, s)), None)


def _const(c):
    return polys.poly_const(c)


def _spv_pool(ring_name: str):
    """(valuations, probe family) on one ring.  The family holds 1, the
    constants p and 1/p of each pool prime (1/p only where it is a ring
    element) and the generator of each support; on Q(T) it is 1, T and
    1/T.  It separates every pair of the pool that is not a
    specialization.  That is why every disc point with a radius has
    radius 1: these opens cannot tell a ball of radius 1/p from the
    classical point at its centre."""
    zero = PrimeIdealDescriptor.zero()
    if ring_name == "Z":
        vals = [trivial_valuation(RING_Z, zero)]
        for p in (2, 3, 5):
            vals += [padic_valuation(RING_Z, p),
                     trivial_valuation(RING_Z, PrimeIdealDescriptor.prime(p))]
        return vals, [1, 2, 3, 5]
    if ring_name == "Q":
        vals = [trivial_valuation(RING_Q, zero)]
        vals += [padic_valuation(RING_Q, p) for p in (2, 3, 5)]
        return vals, [Fraction(1)] + [Fraction(q) for p in (2, 3, 5)
                                      for q in (p, Fraction(1, p))]
    if ring_name.startswith("F"):
        p = int(ring_name[1:])
        return [trivial_valuation(finite_field(p), zero)], list(range(1, p))
    if ring_name == "Q(T)":
        one, t = _const(1), polys.poly_x()
        vals = [trivial_valuation(RING_QRAT, zero),
                degree_valuation(Fraction(1, 2)), degree_valuation(Fraction(1, 3))]
        return vals, [(one, one), (t, one), (one, t)]
    p = int(ring_name.removeprefix("Q[T]@"))
    gens = [polys.parse_poly(g) for g in ("T", "T - 1", "T^2 + 1")]
    vals = [trivial_valuation(RING_QT, zero)]
    vals += [trivial_valuation(RING_QT, PrimeIdealDescriptor.poly(g)) for g in gens]
    vals += [disc_point_valuation(x) for x in (
        gauss_point(p), type5_below(p, 0, 1), type5_below(p, 1, 1),
        classical(p, 0), classical(p, 1))]
    return vals, [_const(1), _const(p), _const(Fraction(1, p))] + gens


SPV_POOLS = ["Z", "Q", "F2", "F3", "F5", "Q(T)", "Q[T]@5", "Q[T]@7"]


class TestSpecializes:
    @pytest.mark.parametrize("ring_name", SPV_POOLS)
    def test_matches_the_subbasic_oracle(self, ring_name):
        vals, family = _spv_pool(ring_name)
        for v in vals:
            for w in vals:
                witness = subbasic_witness(v, w, family)
                assert specializes(v, w) == (witness is None), \
                    (render_valuation(v), render_valuation(w), witness)

    @pytest.mark.parametrize("p", [5, 7])
    def test_trivial_is_not_in_the_closure_of_a_disc_point(self, p):
        v = trivial_valuation(RING_QT, PrimeIdealDescriptor.poly(polys.poly_x()))
        w = disc_point_valuation(gauss_point(p))
        assert not specializes(v, w)
        assert not in_subbasic(w, _const(1), _const(p))
        assert in_subbasic(v, _const(1), _const(p))

    def test_classical_point_lies_over_its_support(self):
        v = disc_point_valuation(classical(5, Fraction(1, 2)))
        w = trivial_valuation(RING_QT, support(v))
        assert specializes(v, w) and not specializes(w, v)

    @pytest.mark.parametrize("ring", [RING_Z, RING_Q], ids=["Z", "Q"])
    @pytest.mark.parametrize("q", [2, 5, 11])
    def test_nine_literal_pairs_on_z_and_q(self, ring, q):
        # trivial:<q> on Q is not a valuation, but the CLI reads it, and
        # its answers are pinned with the rest
        names = ["trivial:0", f"padic:{q}", f"trivial:{q}"]
        vals = {n: parse_valuation(n, ring) for n in names}
        closure = {"trivial:0": set(names),
                   f"padic:{q}": {f"padic:{q}", f"trivial:{q}"},
                   f"trivial:{q}": {f"trivial:{q}"}}
        for x in names:
            for y in names:
                assert specializes(vals[x], vals[y]) == (x in closure[y]), (x, y)

    def test_closure_of_padic(self):
        assert specializes(TRIV5_Z, P5_Z)

    def test_reflexive(self):
        for v in (P5_Z, TRIV0_Z, TRIV5_Z):
            assert specializes(v, v)

    def test_distinct_primes(self):
        assert not specializes(padic_valuation(RING_Z, 5),
                               padic_valuation(RING_Z, 7))

    def test_generic_point(self):
        assert specializes(P5_Z, TRIV0_Z)
        assert specializes(TRIV5_Z, TRIV0_Z)
        assert not specializes(TRIV0_Z, P5_Z)

    def test_disc_points(self):
        v = disc_point_valuation(type5_below(5, 0, 1))
        w = disc_point_valuation(gauss_point(5))
        assert specializes(v, w)
        assert not specializes(w, v)

    def test_disc_points_at_two_primes(self):
        # distinct valuations of Q[T]: {|1| <= |p| != 0} holds the point at
        # the other prime and not the one at p, either way round
        g = {p: disc_point_valuation(gauss_point(p)) for p in (5, 7)}
        for p, q in ((5, 7), (7, 5)):
            assert not equivalent(g[p], g[q])
            assert not specializes(g[p], g[q])
            assert in_subbasic(g[q], _const(1), _const(p))
            assert not in_subbasic(g[p], _const(1), _const(p))


class TestLiterals:
    def test_round_trip(self):
        for text in ("padic:5", "trivial:0", "trivial:5"):
            v = parse_valuation(text, RING_Z)
            assert render_valuation(v) == text
        assert render_valuation(parse_valuation("deg:1/2", RING_Z)) == "deg:1/2"

    def test_trivial_on_the_polynomial_ring_names_its_generator(self):
        v = disc_point_valuation(classical(5, 1))
        w = vertical_quotient(v, full_subgroup(value_group(v)))
        assert w.kind is ValuationKind.TRIVIAL
        assert render_valuation(w) == "trivial:(T - 1)"

    def test_ring_names(self):
        rings = (RING_Z, RING_Q, finite_field(5), RING_QT, RING_QRAT)
        assert [str(r) for r in rings] == ["Z", "Q", "F5", "Q[T]", "Q(T)"]

    def test_ideals(self):
        I = parse_ideal("(5)", RING_Z)
        assert I.generators == (5,)
        assert render_ideal(I) == "(5)"

    def test_bad(self):
        with pytest.raises(ParseError):
            parse_valuation("padic:x", RING_Z)
        with pytest.raises(ParseError):
            parse_ideal("5", RING_Z)


class TestTypedErrors:
    """Each invalid construction raises its own AdicError."""

    def test_finite_field_needs_a_prime(self):
        with pytest.raises(NotPrime):
            finite_field(4)

    def test_prime_ideal_needs_a_prime(self):
        with pytest.raises(NotPrime):
            PrimeIdealDescriptor.prime(6)

    def test_poly_ideal_needs_a_nonconstant_generator(self):
        with pytest.raises(MalformedIdeal):
            PrimeIdealDescriptor.poly(polys.poly_const(3))

    @pytest.mark.parametrize("text", ["T^2 - 1/4", "T^3 + 3*T", "2*T^3 - T^2 - 1"])
    def test_poly_ideal_needs_an_irreducible_generator(self, text):
        with pytest.raises(MalformedIdeal):
            PrimeIdealDescriptor.poly(polys.parse_poly(text))

    def test_irreducible_generators_accepted(self):
        for text in ("T^2 + 1", "T^3 - 2", "3*T^2 - 5/2"):
            P = PrimeIdealDescriptor.poly(polys.parse_poly(text))
            assert P.generator == polys.poly_monic(polys.parse_poly(text))

    def test_irreducibility_above_degree_three_unsupported(self):
        with pytest.raises(UnsupportedKind):
            PrimeIdealDescriptor.poly(polys.parse_poly("T^4 + 1"))

    def test_ideal_needs_a_generator(self):
        with pytest.raises(MalformedIdeal):
            IdealOfDefinition(RING_Z, ())

    def test_padic_valuation_needs_a_prime(self):
        with pytest.raises(NotPrime):
            padic_valuation(RING_Z, 9)

    def test_padic_rho_in_unit_interval(self):
        with pytest.raises(MalformedValuation):
            padic_valuation(RING_Q, 5, rho=Fraction(3, 2))

    def test_degree_rho_in_unit_interval(self):
        with pytest.raises(MalformedValuation):
            degree_valuation(1)

    @pytest.mark.parametrize("text", ["padic:4", "trivial:9", "deg:2", "deg:1/0"])
    def test_literal_errors_are_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_valuation(text, RING_Z)


class TestPolynomialRing:
    def test_poly_ideal_generator_is_monic(self):
        P = PrimeIdealDescriptor.poly(polys.parse_poly("2*T^2 + 2*T + 2"))
        assert P.generator == polys.parse_poly("T^2 + T + 1")
        assert render_ideal_descriptor(P) == "(T^2 + T + 1)"

    def test_ideal_of_polynomials(self):
        I = parse_ideal("(T^2 - 1/5*T, 5)", RING_QT)
        assert I.generators == (polys.parse_poly("T^2 - 1/5*T"), polys.poly_const(5))
        assert render_ideal(I) == "(T^2 - 1/5*T,5)"
