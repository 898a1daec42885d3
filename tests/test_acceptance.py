"""Acceptance gate: twelve exact criteria, one test per criterion.

Each test prints its own ``criterion N: PASS/FAIL`` line; the conftest
hook repeats the lines in the terminal summary so they survive output
capture.  All checks are exact (tolerance zero); the runtime bounds are
asserted where stated.
"""

import itertools
import random
import time
from fractions import Fraction

from adicspec import polys
from adicspec.cech import (
    alternating_subcomplex,
    build_complex,
    check_laurent_exactness,
    cohomology,
)
from adicspec.disc import (
    PointType,
    ball,
    classical,
    classify,
    disc_specializes,
    eval_at,
    in_rational_subset,
    intersect_rational,
    point_eq,
    rational_subset,
    type5_above,
    type5_below,
)
from adicspec.ordgroup import (
    height,
    is_full_subgroup,
    lex_group,
    list_convex_subgroups,
    quotient_by_convex,
    radius_below_group,
    subgroup_height,
)
from adicspec.spectral import closure, factor_specialization, is_sober, FiniteSpace, spv_enumerate
from adicspec.tate import (
    gauss_norm,
    generates_unit_ideal,
    newton_polygon,
    parse_series,
    series,
    series_add,
    series_mul,
)
from adicspec.valuation import (
    RING_QT,
    RING_Z,
    c_gamma_I,
    disc_point_valuation,
    equivalent,
    eval_valuation,
    horizontal_restrict,
    parse_ideal,
    retract,
    value_group,
    vertical_quotient,
)
from adicspec.value import value_cmp, value_le, value_max, value_mul
from presheaves import random_presheaf

CRITERIA = {
    1: "Spv enumeration counts, closures and generic point (bounds 5/10/30)",
    2: "Gauss-norm valuation axioms on 1000 random pairs",
    3: "disc evaluation matches Gauss norm and classical absolute values",
    4: "disc specialization is a partial order with type-2 non-closed points",
    5: "rational-subset intersection agrees with membership conjunction",
    6: "retraction is idempotent and fixes members",
    7: "every Spv Z specialization factors as vertical then horizontal",
    8: "all finite Kolmogorov preorders on <= 4 points are sober",
    9: "alternating and full Cech cohomology agree on 50 random presheaves",
    10: "Laurent-cover sequence is exact for T, 5T+1, T^2-5 at N=20",
    11: "Newton-polygon slopes equal root valuations on 100 products",
    12: "height is additive in convex subgroup and quotient",
}


def _report(num: int, ok: bool) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {word} - {CRITERIA[num]}")
    assert ok, CRITERIA[num]


def _random_series(rng, p, max_deg=12):
    coeffs = {}
    for d in range(rng.randint(0, max_deg) + 1):
        if rng.random() < 0.6:
            num = rng.randint(-60, 60)
            if num:
                coeffs[d] = Fraction(num, rng.randint(1, 60))
    return series(p, coeffs)


def _disc_family(p=2):
    """312 points covering all four implemented kinds."""
    centers = ([Fraction(c) for c in range(8)] +
               [Fraction(1, 3), Fraction(2, 3), Fraction(1, 5),
                Fraction(3, 5), Fraction(7, 3)])
    radii = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
             Fraction(3, 4), Fraction(1, 3), Fraction(2, 3), Fraction(5, 8)]
    pts = [classical(p, c) for c in centers]
    for c in centers:
        for r in radii:
            pts.append(ball(p, c, r))
            pts.append(type5_below(p, c, r))
            if r < 1:
                pts.append(type5_above(p, c, r))
    return pts


def test_criterion_01_spv_enumeration():
    t0 = time.perf_counter()
    ok = True
    for bound, primes in ((5, [2, 3, 5]), (10, [2, 3, 5, 7]),
                          (30, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])):
        m = spv_enumerate(RING_Z, bound)
        ok &= len(m.space.points) == 1 + 2 * len(primes)
        for p in primes:
            ok &= closure(m.space, {f"|.|_{p}"}) == \
                frozenset({f"|.|_{p}", f"|.|_0{p}"})
        # |.|_0 is the unique generic point
        for lab in m.space.points:
            ok &= ((lab, "|.|_0") in m.space.order)
            ok &= (("|.|_0", lab) in m.space.order) == (lab == "|.|_0")
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 1.0)


def test_criterion_02_gauss_norm_axioms():
    t0 = time.perf_counter()
    ok = True
    for p in (2, 5):
        rng = random.Random(1000 + p)
        for _ in range(500):
            f, g = _random_series(rng, p), _random_series(rng, p)
            nf, ng = gauss_norm(f), gauss_norm(g)
            ok &= gauss_norm(series_mul(f, g)) == value_mul(nf, ng)
            s = gauss_norm(series_add(f, g))
            ok &= value_le(s, value_max(nf, ng))
            if value_cmp(nf, ng) != 0:
                ok &= s == value_max(nf, ng)
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 5.0)


def test_criterion_03_disc_evaluation_cross_checks():
    t0 = time.perf_counter()
    ok = True
    for p in (2, 5):
        rng = random.Random(2000 + p)
        for _ in range(250):
            f = _random_series(rng, p)
            c = Fraction(rng.randint(0, 6))
            ok &= eval_at(ball(p, c, Fraction(1)), f) == gauss_norm(f)
        for _ in range(250):
            f = _random_series(rng, p)
            c = Fraction(rng.randint(0, 6))
            got = eval_at(classical(p, c), f)
            v = polys.poly_eval(f.as_dict(), c)
            if v == 0:
                ok &= got.is_zero()
            else:
                from adicspec.ordgroup import pos_element
                from adicspec.value import nonzero
                ok &= got == nonzero(pos_element(polys.padic_abs(v, p)))
    elapsed = time.perf_counter() - t0
    _report(3, ok and elapsed < 5.0)


def test_criterion_04_disc_specialization_combinatorics():
    pts = _disc_family()
    n = len(pts)
    ok = n >= 300
    ok &= {classify(x) for x in pts} == {
        PointType.TYPE1, PointType.TYPE2, PointType.TYPE3,
        PointType.TYPE5_BELOW, PointType.TYPE5_ABOVE}
    down = [frozenset(i for i in range(n) if disc_specializes(pts[i], pts[j]))
            for j in range(n)]
    # reflexive, antisymmetric up to point equality, transitive
    for j in range(n):
        ok &= j in down[j]
        for i in down[j]:
            if j in down[i]:
                ok &= point_eq(pts[i], pts[j])
            ok &= down[i] <= down[j]
    # type-2 points are exactly the ones with something else in their closure
    for j in range(n):
        non_closed = any(not point_eq(pts[i], pts[j]) for i in down[j])
        ok &= non_closed == (classify(pts[j]) is PointType.TYPE2)
    # each type-5 point around a branching (type-2) ball lies in the
    # closure of that ball and of nothing else
    for j in range(n):
        x = pts[j]
        if classify(x) in (PointType.TYPE5_BELOW, PointType.TYPE5_ABOVE):
            b = ball(2, x.center, x.radius)
            if classify(b) is not PointType.TYPE2:
                continue
            ok &= disc_specializes(x, b)
            for k in range(n):
                if j in down[k] and not point_eq(pts[k], x):
                    ok &= point_eq(pts[k], b)
    _report(4, ok)


def test_criterion_05_rational_intersection():
    p = 2
    rng = random.Random(55)
    pool = [parse_series(t, p) for t in
            ("T", "T-1", "T+1", "T-2", "2*T+1", "T^2-2", "T^2+T+1", "2", "3")]

    def random_subset():
        while True:
            nums = tuple(rng.choice(pool)
                         for _ in range(rng.randint(1, 2)))
            den = rng.choice(pool)
            if generates_unit_ideal(nums + (den,)):
                return rational_subset(nums, den)

    sample = _disc_family(p)[:200]
    ok = True
    for _ in range(20):
        R1, R2 = random_subset(), random_subset()
        R12 = intersect_rational(R1, R2)
        for x in sample:
            both = in_rational_subset(x, R1) and in_rational_subset(x, R2)
            ok &= in_rational_subset(x, R12) == both
    _report(5, ok)


def test_criterion_06_retraction():
    ok = True
    m = spv_enumerate(RING_Z, 30)
    for text in ("(0)", "(2)", "(5)", "(210)"):
        I = parse_ideal(text, RING_Z)
        for v in m.valuations.values():
            r = retract(v, I)
            ok &= equivalent(retract(r, I), r)
            member = (is_full_subgroup(c_gamma_I(v, I))
                      or height(value_group(v)) == 0)
            if member:
                ok &= equivalent(r, v)
    I = parse_ideal("(2)", RING_QT)
    for x in _disc_family(2)[:200]:
        v = disc_point_valuation(x)
        r = retract(v, I)
        ok &= equivalent(r, v)
        ok &= equivalent(retract(r, I), r)
    _report(6, ok)


def _value_profile(v, upto=100):
    return [eval_valuation(v, n) for n in range(upto + 1)]


def _profiles_agree(a, b):
    for x, y in zip(a, b):
        if x.is_zero() != y.is_zero():
            return False
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if value_cmp(a[i], a[j]) != value_cmp(b[i], b[j]):
                return False
    return True


def test_criterion_07_factorization():
    m = spv_enumerate(RING_Z, 30)
    ok = True
    for w_label, v_label in m.space.order:
        rep = factor_specialization(m, v_label, w_label)
        mid = vertical_quotient(rep.v_prime, rep.H)
        out = horizontal_restrict(rep.v_prime, rep.L)
        ok &= equivalent(mid, m.valuations[v_label])
        ok &= equivalent(out, m.valuations[w_label])
        ok &= _profiles_agree(_value_profile(out),
                              _value_profile(m.valuations[w_label]))
    _report(7, ok)


def test_criterion_08_finite_soberness():
    t0 = time.perf_counter()
    ok = True
    counts = {}
    for n in range(1, 5):
        pts = tuple(range(n))
        offdiag = [(i, j) for i in pts for j in pts if i != j]
        diag = frozenset((i, i) for i in pts)
        found = 0
        for bits in range(1 << len(offdiag)):
            rel = {offdiag[k] for k in range(len(offdiag)) if bits >> k & 1}
            if any((j, i) in rel for i, j in rel):
                continue  # not antisymmetric (Kolmogorov fails)
            if any((i, k) not in rel
                   for i, j in rel for j2, k in rel
                   if j2 == j and i != k):
                continue  # not transitive
            found += 1
            X = FiniteSpace(pts, frozenset(rel) | diag)
            ok &= is_sober(X)
        counts[n] = found
    # labeled partial-order counts on 1..4 points
    ok &= counts == {1: 1, 2: 3, 3: 19, 4: 219}
    elapsed = time.perf_counter() - t0
    _report(8, ok and elapsed < 10.0)


def test_criterion_09_quasi_isomorphism():
    rng = random.Random(99)
    ok = True
    for n in [2] * 20 + [3] * 20 + [4] * 10:
        P = random_presheaf(rng, n, universe=3 if n < 4 else 2)
        ok &= cohomology(build_complex(P)) == \
            cohomology(alternating_subcomplex(P))
    _report(9, ok)


def test_criterion_10_laurent_exactness():
    t0 = time.perf_counter()
    ok = True
    for text in ("T", "5*T+1", "T^2-5"):
        rep = check_laurent_exactness(parse_series(text, 5), 20)
        ok &= rep.exact
    elapsed = time.perf_counter() - t0
    _report(10, ok and elapsed < 10.0)


def test_criterion_11_newton_polygon_oracle():
    p = 5
    rng = random.Random(110)
    ok = True
    for _ in range(100):
        vals = []
        prod = series(p, {0: Fraction(1)})
        for _ in range(rng.randint(1, 6)):
            k = rng.randint(-3, 3)
            u = rng.choice([1, 2, 3, 4, 6, 7])
            vals.append(k)
            root = Fraction(u) * Fraction(p) ** k
            prod = series_mul(prod, series(p, {1: Fraction(1), 0: -root}))
        slopes = sorted(s for s, l in newton_polygon(prod).slopes
                        for _ in range(l))
        ok &= slopes == sorted(-Fraction(k) for k in vals)
    _report(11, ok)


def test_criterion_12_height_additivity():
    ok = True
    groups = [lex_group(n) for n in range(1, 5)]
    groups.append(radius_below_group(Fraction(1, 2)))
    for G in groups:
        for H in list_convex_subgroups(G):
            Q, _ = quotient_by_convex(G, H)
            ok &= height(G) == subgroup_height(H) + height(Q)
    _report(12, ok)
