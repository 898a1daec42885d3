"""Ordered value groups: arithmetic, order, convex subgroups, quotients."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicspec.errors import (
    MalformedElement,
    MismatchedGroups,
    NotConvexSubgroupOfValueGroup,
    ParseError,
    TooLarge,
)
from adicspec.ordgroup import (
    MAX_ELEMENT_BITS,
    MAX_LEX_ARITY,
    ConvexSubgroup,
    GroupElement,
    convex_subgroup_generated,
    full_subgroup,
    group_cmp,
    group_inv,
    group_le,
    group_lt,
    group_mul,
    group_pow,
    height,
    is_cofinal,
    is_full_subgroup,
    is_trivial_subgroup,
    lex_element,
    lex_group,
    lex_tail,
    list_convex_subgroups,
    parse_element,
    pos_element,
    pos_rational_group,
    quotient_by_convex,
    radius_above_group,
    radius_below_group,
    radius_element,
    radius_real_subgroup,
    render_element,
    subgroup_as_group,
    subgroup_contains,
    subgroup_contains_subgroup,
    subgroup_height,
    trivial_group,
    trivial_subgroup,
    unit,
)


def sample_elements(G, rng, count=40):
    out = [unit(G)]
    for _ in range(count):
        if G.kind.name == "TRIVIAL":
            out.append(unit(G))
        elif G.kind.name == "LEX_RATIONAL":
            out.append(lex_element(
                G, [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                    for _ in range(G.n)]))
        elif G.kind.name == "POS_RATIONAL":
            out.append(pos_element(
                Fraction(rng.randint(1, 40), rng.randint(1, 40))))
        else:
            out.append(radius_element(
                G, Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                rng.randint(-3, 3)))
    return out


ALL_GROUPS = [
    trivial_group(),
    lex_group(1),
    lex_group(2),
    lex_group(3),
    pos_rational_group(),
    radius_below_group(Fraction(1, 2)),
    radius_below_group(1),
    radius_above_group(Fraction(1, 3)),
]


class TestElementShape:
    @pytest.mark.parametrize("group,payload", [
        (trivial_group(), (Fraction(1),)),
        (lex_group(2), (Fraction(1),)),
        (pos_rational_group(), (Fraction(0),)),
        (pos_rational_group(), (Fraction(1), Fraction(2))),
        (radius_below_group(Fraction(1, 2)), (Fraction(-1), 0)),
        (radius_above_group(Fraction(1, 3)), (Fraction(1), Fraction(1, 2))),
    ])
    def test_malformed_payload_rejected(self, group, payload):
        with pytest.raises(MalformedElement) as exc:
            GroupElement(group, payload)
        assert exc.value.code == "malformed-element"

    @pytest.mark.parametrize("make,r", [
        (radius_below_group, Fraction(0)), (radius_below_group, Fraction(3, 2)),
        (radius_below_group, Fraction(-1, 2)), (radius_above_group, Fraction(1)),
        (radius_above_group, Fraction(0)), (radius_above_group, Fraction(2)),
    ])
    def test_radius_group_out_of_range(self, make, r):
        with pytest.raises(MalformedElement) as exc:
            make(r)
        assert exc.value.code == "malformed-element"

    def test_lex_arity_must_be_positive(self):
        with pytest.raises(MalformedElement) as exc:
            lex_group(0)
        assert exc.value.code == "malformed-element"

    @pytest.mark.parametrize("group,text", [
        (trivial_group(), "2"),
        (lex_group(2), "1,2"),
        (radius_below_group(Fraction(1, 2)), "1*g^1@1/3<"),
    ])
    def test_unparsable_element_is_parse_error(self, group, text):
        with pytest.raises(ParseError) as exc:
            parse_element(group, text)
        assert str(exc.value) == f"cannot parse group element {text!r}"

    def test_malformed_payload_rejected_under_optimize(self):
        # the check must not vanish with assertions under python -O
        code = ("from adicspec.errors import MalformedElement\n"
                "from adicspec.ordgroup import GroupElement, lex_group\n"
                "try:\n"
                "    GroupElement(lex_group(2), ())\n"
                "except MalformedElement as exc:\n"
                "    print(exc.code)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "malformed-element"


class TestGroupLaw:
    def test_lex_inverse_pair(self):
        G = lex_group(2)
        a = lex_element(G, [-1, 2])
        b = lex_element(G, [1, -2])
        assert group_mul(a, b) == unit(G)

    def test_pos_rational_product(self):
        a = pos_element(Fraction(1, 5))
        assert group_mul(a, a) == pos_element(Fraction(1, 25))

    def test_radius_componentwise(self):
        G = radius_below_group(Fraction(1, 2))
        a = radius_element(G, 2, 1)
        b = radius_element(G, 3, -1)
        assert group_mul(a, b) == radius_element(G, 6, 0)

    def test_mismatched_groups(self):
        with pytest.raises(MismatchedGroups):
            group_mul(pos_element(1), unit(trivial_group()))

    @pytest.mark.parametrize("G", ALL_GROUPS)
    def test_inverse_and_pow(self, G):
        rng = random.Random(7)
        for a in sample_elements(G, rng, 10):
            assert group_mul(a, group_inv(a)) == unit(G)
            assert group_pow(a, 3) == group_mul(a, group_mul(a, a))
            assert group_pow(a, 0) == unit(G)
            assert group_pow(a, -2) == group_inv(group_mul(a, a))


class TestOrder:
    def test_pos_rational(self):
        assert group_lt(pos_element(Fraction(1, 25)), pos_element(Fraction(1, 5)))

    def test_radius_below_infinitesimal(self):
        # the generator g sits strictly below its radius r
        G = radius_below_group(Fraction(1, 2))
        assert group_lt(radius_element(G, 1, 1), radius_element(G, Fraction(1, 2), 0))

    def test_radius_above_infinitesimal(self):
        G = radius_above_group(Fraction(1, 2))
        assert group_cmp(radius_element(G, 1, 1),
                         radius_element(G, Fraction(1, 2), 0)) > 0

    def test_radius_real_part_dominates(self):
        G = radius_below_group(Fraction(1, 2))
        # real parts 1/2 vs 2*(1/2) = 1: compare by folded value first
        assert group_lt(radius_element(G, Fraction(1, 2), 0),
                        radius_element(G, 2, 1))

    @pytest.mark.parametrize("G", ALL_GROUPS)
    def test_total_order_compatible_with_mul(self, G):
        rng = random.Random(11)
        elts = sample_elements(G, rng, 15)
        for a in elts:
            for b in elts:
                c = group_cmp(a, b)
                assert c == -group_cmp(b, a)
                for x in elts[:5]:
                    if c <= 0:
                        assert group_le(group_mul(a, x), group_mul(b, x))

    @pytest.mark.parametrize("G", ALL_GROUPS)
    def test_inverse_antisymmetry(self, G):
        rng = random.Random(13)
        for a in sample_elements(G, rng, 15):
            assert group_lt(a, unit(G)) == group_lt(unit(G), group_inv(a))


_ratios = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
_positives = st.builds(Fraction, st.integers(1, 30), st.integers(1, 30))
_AXIOM_GROUPS = (lex_group(1), lex_group(2), lex_group(3),
                 pos_rational_group(), radius_below_group(Fraction(1, 2)),
                 radius_below_group(1), radius_above_group(Fraction(1, 3)))


def _elements(G):
    if G.kind.name == "LEX_RATIONAL":
        return st.lists(_ratios, min_size=G.n, max_size=G.n).map(
            lambda xs: lex_element(G, xs))
    if G.kind.name == "POS_RATIONAL":
        return _positives.map(pos_element)
    return st.builds(lambda q, k: radius_element(G, q, k), _positives,
                     st.integers(-4, 4))


_triples = st.sampled_from(_AXIOM_GROUPS).flatmap(
    lambda G: st.tuples(_elements(G), _elements(G), _elements(G)))


class TestOrderedGroupAxioms:
    """lex:n, posq and the radius groups are totally ordered abelian
    groups whose order is compatible with the product."""

    @settings(max_examples=100)
    @given(_triples)
    def test_abelian_group(self, abc):
        a, b, c = abc
        e = unit(a.group)
        assert group_mul(group_mul(a, b), c) == group_mul(a, group_mul(b, c))
        assert group_mul(a, b) == group_mul(b, a)
        assert group_mul(a, e) == a
        assert group_mul(a, group_inv(a)) == e

    @settings(max_examples=100)
    @given(_triples)
    def test_total_order_compatible_with_product(self, abc):
        a, b, c = abc
        assert group_cmp(a, b) == -group_cmp(b, a)
        assert (group_cmp(a, b) == 0) == (a == b)
        if group_le(a, b) and group_le(b, c):
            assert group_le(a, c)
        if group_le(a, b):
            assert group_le(group_mul(a, c), group_mul(b, c))


_long_positives = st.builds(Fraction, st.integers(1, 10 ** 30),
                            st.integers(1, 10 ** 30))


@st.composite
def _radius_pairs(draw):
    """Two elements of one radius group; half the time the second has the
    first's folded real part, so the g-exponent breaks the tie."""
    r = draw(st.one_of(st.just(Fraction(1)), _long_positives.filter(
        lambda r: r < 1)))
    group = draw(st.sampled_from([radius_below_group] + (
        [radius_above_group] if r < 1 else [])))(r)
    qa, ka, kb = (draw(_long_positives), draw(st.integers(-40, 40)),
                  draw(st.integers(-40, 40)))
    qb = draw(st.one_of(_long_positives, st.just(qa * r ** (ka - kb))))
    return radius_element(group, qa, ka), radius_element(group, qb, kb)


class TestRadiusOrderInIntegers:
    @settings(max_examples=300)
    @given(_radius_pairs())
    def test_group_cmp_is_the_fraction_formula(self, ab):
        # q_a r^(k_a) against q_b r^(k_b) in Fractions, then the g-exponent:
        # larger is smaller below r and larger above r
        a, b = ab
        (qa, ka), (qb, kb), r = a.payload, b.payload, a.group.r
        real_a, real_b = qa * r ** ka, qb * r ** kb
        if real_a != real_b:
            expected = 1 if real_a > real_b else -1
        elif ka == kb:
            expected = 0
        else:
            below = a.group.kind.name == "RADIUS_BELOW"
            expected = (1 if ka < kb else -1) if below else \
                (1 if ka > kb else -1)
        assert group_cmp(a, b) == expected


class TestConvexSubgroups:
    def test_generated_lex(self):
        G = lex_group(3)
        H = convex_subgroup_generated(lex_element(G, [0, -2, 5]))
        assert H == lex_tail(G, 2)

    def test_generated_unit(self):
        for G in ALL_GROUPS:
            assert is_trivial_subgroup(convex_subgroup_generated(unit(G)))

    def test_generated_radius_infinitesimal(self):
        G = radius_below_group(Fraction(1, 2))
        assert is_full_subgroup(convex_subgroup_generated(radius_element(G, 1, 1)))
        # real part exactly 1: generates the infinitesimal cyclic subgroup
        H = convex_subgroup_generated(radius_element(G, 2, 1))
        assert H == radius_real_subgroup(G)

    def test_chain_lengths(self):
        assert len(list_convex_subgroups(trivial_group())) == 1
        assert len(list_convex_subgroups(lex_group(2))) == 3
        assert len(list_convex_subgroups(radius_below_group(Fraction(1, 3)))) == 3
        assert len(list_convex_subgroups(pos_rational_group())) == 2

    @pytest.mark.parametrize("G", ALL_GROUPS)
    def test_members_are_convex(self, G):
        """Brute-force convexity oracle: h <= g <= h' with h, h' in H
        forces g in H, over a sampled family."""
        rng = random.Random(17)
        elts = sample_elements(G, rng, 20)
        for H in list_convex_subgroups(G):
            members = [e for e in elts if subgroup_contains(H, e)]
            for g in elts:
                if any(group_le(h, g) and group_le(g, h2)
                       for h in members for h2 in members):
                    assert subgroup_contains(H, g)

    @pytest.mark.parametrize("G", ALL_GROUPS)
    def test_index_outside_the_chain(self, G):
        for index in (-1, height(G) + 1):
            with pytest.raises(NotConvexSubgroupOfValueGroup):
                ConvexSubgroup(G, index)

    @pytest.mark.parametrize("G", ALL_GROUPS)
    def test_index_order_is_inclusion(self, G):
        """On sampled elements plus one element of each step of the chain,
        H_i lies in H_j exactly when i <= j."""
        elts = sample_elements(G, random.Random(37), 30)
        if G.kind.name == "LEX_RATIONAL":
            elts += [lex_element(G, [int(i == j) for i in range(G.n)])
                     for j in range(G.n)]
        elif G.kind.name == "POS_RATIONAL":
            elts.append(pos_element(2))
        elif G.kind.name != "TRIVIAL":
            elts += [radius_element(G, 1 / G.r, 1), radius_element(G, 2, 0)]
        chain = list_convex_subgroups(G)
        members = [frozenset(i for i, e in enumerate(elts)
                             if subgroup_contains(H, e)) for H in chain]
        for H, mh in zip(chain, members):
            for K, mk in zip(chain, members):
                assert (H.index <= K.index) == (mh <= mk)
                assert subgroup_contains_subgroup(K, H) == (mh <= mk)

    @pytest.mark.parametrize("G", ALL_GROUPS)
    def test_generated_is_minimal(self, G):
        rng = random.Random(19)
        for g in sample_elements(G, rng, 15):
            H = convex_subgroup_generated(g)
            assert subgroup_contains(H, g)
            for K in list_convex_subgroups(G):
                if subgroup_contains(K, g):
                    chain = list_convex_subgroups(G)
                    assert chain.index(H) <= chain.index(K)


class TestHeightAndQuotient:
    def test_heights(self):
        assert height(trivial_group()) == 0
        assert height(lex_group(3)) == 3
        assert height(pos_rational_group()) == 1
        assert height(radius_below_group(Fraction(1, 2))) == 2

    def test_lex_quotient(self):
        G = lex_group(3)
        Q, proj = quotient_by_convex(G, lex_tail(G, 2))
        assert Q == lex_group(1)
        assert proj(lex_element(G, [5, 1, 2])) == lex_element(Q, [5])

    def test_trivial_quotient_is_identity(self):
        G = pos_rational_group()
        Q, proj = quotient_by_convex(G, trivial_subgroup(G))
        a = pos_element(Fraction(3, 7))
        assert Q == G and proj(a) == a

    def test_radius_quotient_order_preserving(self):
        G = radius_below_group(Fraction(1, 2))
        Q, proj = quotient_by_convex(G, radius_real_subgroup(G))
        rng = random.Random(23)
        elts = sample_elements(G, rng, 20)
        for a in elts:
            for b in elts:
                if group_le(a, b):
                    assert group_le(proj(a), proj(b)) or proj(a) == proj(b)

    @pytest.mark.parametrize("G", ALL_GROUPS)
    def test_height_additivity(self, G):
        for H in list_convex_subgroups(G):
            Q, _ = quotient_by_convex(G, H)
            assert height(G) == subgroup_height(H) + height(Q)

    @pytest.mark.parametrize("G", ALL_GROUPS)
    def test_projection_preserves_le_one(self, G):
        rng = random.Random(29)
        for H in list_convex_subgroups(G):
            Q, proj = quotient_by_convex(G, H)
            for a in sample_elements(G, rng, 10):
                if group_le(a, unit(G)):
                    assert group_le(proj(a), unit(Q))


class TestCofinality:
    def test_pos_rational(self):
        G = pos_rational_group()
        assert is_cofinal(pos_element(Fraction(1, 5)), full_subgroup(G))

    def test_unit_never_cofinal(self):
        G = pos_rational_group()
        assert not is_cofinal(unit(G), full_subgroup(G))

    def test_lex_second_coordinate_not_cofinal(self):
        G = lex_group(2)
        assert not is_cofinal(lex_element(G, [0, -1]), full_subgroup(G))

    def test_first_coordinate_cofinal(self):
        G = lex_group(2)
        assert is_cofinal(lex_element(G, [-1, 0]), full_subgroup(G))


class TestSubgroupAsGroup:
    def test_radius_real_is_cyclic_rank_one(self):
        G = radius_below_group(Fraction(1, 2))
        assert subgroup_as_group(radius_real_subgroup(G)) == lex_group(1)

    def test_lex_tail(self):
        G = lex_group(3)
        assert subgroup_as_group(lex_tail(G, 2)) == lex_group(2)


class TestRendering:
    @pytest.mark.parametrize("G", ALL_GROUPS)
    def test_round_trip(self, G):
        rng = random.Random(31)
        for a in sample_elements(G, rng, 10):
            assert parse_element(G, render_element(a)) == a

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_element(lex_group(2), "nonsense")


class TestSizeGuards:
    def test_lex_arity_cap(self):
        assert height(lex_group(MAX_LEX_ARITY)) == MAX_LEX_ARITY
        with pytest.raises(TooLarge):
            lex_group(MAX_LEX_ARITY + 1)

    def test_power_cap_counts_bits_not_the_exponent(self):
        two = pos_element(2)
        assert group_pow(two, MAX_ELEMENT_BITS) == \
            pos_element(2 ** MAX_ELEMENT_BITS)
        with pytest.raises(TooLarge):
            group_pow(two, MAX_ELEMENT_BITS + 1)
        with pytest.raises(TooLarge):
            group_pow(pos_element(Fraction(2, 3)), -MAX_ELEMENT_BITS - 1)
        # 1 has no bits to grow
        assert group_pow(pos_element(1), 10 ** 30) == pos_element(1)

    def test_parsed_radius_exponent_cap(self):
        # comparisons fold q*g^k to q*r^k, here 2^-k
        G, k = radius_below_group(Fraction(1, 2)), MAX_ELEMENT_BITS
        assert parse_element(G, f"1*g^{k}@1/2<") == radius_element(G, 1, k)
        with pytest.raises(TooLarge):
            parse_element(G, f"1*g^{k + 1}@1/2<")
        G = radius_below_group(1)
        assert parse_element(G, f"1*g^{10 ** 20}@1<") == \
            radius_element(G, 1, 10 ** 20)

    def test_render_refuses_what_str_cannot_print(self):
        with pytest.raises(TooLarge):
            render_element(pos_element(Fraction(1, 3 ** 20000)))
