"""Finite spectral spaces and the enumerated valuation spectra."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from adicspec.errors import (
    NotAPreorder,
    NotASpecialization,
    NotKolmogorov,
    UnknownPoint,
    UnsupportedRing,
)
from adicspec.ordgroup import is_full_subgroup, is_trivial_subgroup
from adicspec.spectral import (
    FiniteSpace,
    closure,
    constructible_sets,
    factor_specialization,
    finite_space,
    is_kolmogorov,
    is_sober,
    spv_enumerate,
)
from adicspec.valuation import (
    RING_QT,
    RING_Q,
    RING_Z,
    IdealKind,
    equivalent,
    finite_field,
    horizontal_restrict,
    padic_valuation,
    support,
    vertical_quotient,
)


def sierpinski():
    return finite_space(["c", "g"], [("c", "g")])


class TestFiniteSpace:
    def test_closure_empty(self):
        assert closure(sierpinski(), set()) == frozenset()

    def test_closure_generic(self):
        assert closure(sierpinski(), {"g"}) == frozenset({"c", "g"})

    def test_closure_unknown_point(self):
        with pytest.raises(UnknownPoint):
            closure(sierpinski(), {"zzz"})

    def test_closure_operator_laws(self):
        X = finite_space("abcd", [("a", "b"), ("b", "c")])
        subsets = [set(), {"a"}, {"c"}, {"c", "d"}, set("abcd")]
        for S in subsets:
            cl = closure(X, S)
            assert S <= cl
            assert closure(X, cl) == cl
            for T in subsets:
                if S <= T:
                    assert cl <= closure(X, T)

    def test_kolmogorov(self):
        assert is_kolmogorov(sierpinski())
        bad = finite_space(["x", "y"], [("x", "y"), ("y", "x")])
        assert not is_kolmogorov(bad)

    def test_one_point(self):
        X = finite_space(["*"], [])
        assert is_kolmogorov(X) and is_sober(X)

    def test_two_points_in_each_others_closure_are_not_sober(self):
        X = finite_space(["x", "y"], [("x", "y"), ("y", "x")])
        assert closure(X, {"x"}) == closure(X, {"y"}) == {"x", "y"}
        assert not is_sober(X)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_sober_exactly_when_kolmogorov(self, n):
        # Hochster: a finite space is sober iff it is T0; every relation on
        # n points that is a preorder is checked
        points = tuple(range(n))
        pairs = [(x, y) for x in points for y in points if x != y]
        for mask in range(1 << len(pairs)):
            rel = {(x, x) for x in points} | {
                pr for i, pr in enumerate(pairs) if mask >> i & 1}
            if all((x, z) in rel for x, y in rel for y2, z in rel if y == y2):
                X = FiniteSpace(points, frozenset(rel))
                assert is_sober(X) == is_kolmogorov(X)

    def test_constructible_counts(self):
        assert constructible_sets(finite_space(["*"], []))[0] == 2
        chain = finite_space("abc", [("a", "b"), ("b", "c")])
        assert constructible_sets(chain)[0] == 8

    def test_constructible_needs_kolmogorov(self):
        bad = finite_space(["x", "y"], [("x", "y"), ("y", "x")])
        with pytest.raises(NotKolmogorov):
            constructible_sets(bad)

    def test_non_reflexive_order_rejected(self):
        with pytest.raises(NotAPreorder):
            FiniteSpace(("x", "y"), frozenset({("x", "x")}))

    def test_non_transitive_order_rejected(self):
        pairs = {(x, x) for x in "abc"} | {("a", "b"), ("b", "c")}
        with pytest.raises(NotAPreorder) as info:
            FiniteSpace(tuple("abc"), frozenset(pairs))
        assert info.value.code == "not-a-preorder"

    def test_non_transitive_order_rejected_under_optimize(self):
        # the check must not vanish with assertions under python -O
        code = ("from adicspec.errors import NotAPreorder\n"
                "from adicspec.spectral import FiniteSpace\n"
                "pairs = {(x, x) for x in 'abc'} | {('a', 'b'), ('b', 'c')}\n"
                "try:\n"
                "    FiniteSpace(tuple('abc'), frozenset(pairs))\n"
                "except NotAPreorder as exc:\n"
                "    print(exc.code)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "not-a-preorder"


class TestSpvEnumerate:
    def test_finite_field(self):
        m = spv_enumerate(finite_field(7), 10)
        assert len(m.space.points) == 1

    def test_z_bound_5(self):
        m = spv_enumerate(RING_Z, 5)
        assert len(m.space.points) == 7

    def test_q_bound_5(self):
        m = spv_enumerate(RING_Q, 5)
        assert len(m.space.points) == 4
        for lab in m.space.points:
            assert (lab, "|.|_0") in m.space.order  # |.|_0 is generic

    def test_closure_of_padic(self):
        m = spv_enumerate(RING_Z, 10)
        assert closure(m.space, {"|.|_5"}) == frozenset({"|.|_5", "|.|_05"})

    def test_supp_monotone(self):
        m = spv_enumerate(RING_Z, 10)
        for w, v in m.space.order:
            sw, sv = support(m.valuations[w]), support(m.valuations[v])
            # supp(v) contained in supp(w) when w is in the closure of v
            if sv.kind is IdealKind.PRIME_P:
                assert sw == sv
        assert is_kolmogorov(m.space) and is_sober(m.space)

    def test_constructible_count_bound_3(self):
        m = spv_enumerate(RING_Z, 3)
        assert constructible_sets(m.space)[0] == 32

    def test_unsupported_ring(self):
        with pytest.raises(UnsupportedRing):
            spv_enumerate(RING_QT, 5)


class TestFactorization:
    def test_identity(self):
        m = spv_enumerate(RING_Z, 5)
        rep = factor_specialization(m, "|.|_5", "|.|_5")
        assert is_trivial_subgroup(rep.H) and is_full_subgroup(rep.L)

    def test_purely_horizontal(self):
        m = spv_enumerate(RING_Z, 5)
        rep = factor_specialization(m, "|.|_5", "|.|_05")
        assert is_trivial_subgroup(rep.H) and is_trivial_subgroup(rep.L)
        assert equivalent(vertical_quotient(rep.v_prime, rep.H),
                          m.valuations["|.|_5"])
        assert equivalent(horizontal_restrict(rep.v_prime, rep.L),
                          m.valuations["|.|_05"])

    def test_vertical_then_horizontal(self):
        m = spv_enumerate(RING_Z, 5)
        rep = factor_specialization(m, "|.|_0", "|.|_05")
        assert is_full_subgroup(rep.H) and is_trivial_subgroup(rep.L)
        assert equivalent(vertical_quotient(rep.v_prime, rep.H),
                          m.valuations["|.|_0"])
        assert equivalent(horizontal_restrict(rep.v_prime, rep.L),
                          m.valuations["|.|_05"])

    @pytest.mark.parametrize("ring", [RING_Z, RING_Q], ids=["Z", "Q"])
    def test_intermediate_is_the_models_padic_point(self, ring):
        m = spv_enumerate(ring, 7)
        for w_label in m.space.points:
            if w_label == "|.|_0":
                continue
            rep = factor_specialization(m, "|.|_0", w_label)
            p = int(w_label.removeprefix("|.|_").removeprefix("0"))
            assert rep.v_prime == padic_valuation(ring, p) \
                == m.valuations[f"|.|_{p}"]
            assert is_full_subgroup(rep.H)
            assert equivalent(horizontal_restrict(rep.v_prime, rep.L),
                              m.valuations[w_label])

    def test_not_a_specialization(self):
        m = spv_enumerate(RING_Z, 5)
        with pytest.raises(NotASpecialization):
            factor_specialization(m, "|.|_5", "|.|_03")
