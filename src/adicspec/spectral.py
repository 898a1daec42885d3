"""Finite spectral-space models.

A finite space is stored as its specialization preorder: x <= y means
x lies in the closure of {y}.  Closed sets are down-sets, open sets are
up-sets, and a finite space is spectral iff the preorder is a partial
order (Kolmogorov).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import isqrt

from .errors import (NotAPreorder, NotASpecialization, NotKolmogorov,
                     TooLarge, UnknownPoint, UnsupportedRing)
from .ordgroup import ConvexSubgroup, full_subgroup, trivial_subgroup
from .valuation import (
    BaseRing,
    PrimeIdealDescriptor,
    RingKind,
    Valuation,
    ValuationKind,
    padic_valuation,
    trivial_valuation,
    value_group,
)


@dataclass(frozen=True)
class FiniteSpace:
    points: tuple              # point labels
    order: frozenset           # pairs (x, y) with x in closure {y}

    def __post_init__(self):
        pts = set(self.points)
        for x, y in self.order:
            if x not in pts or y not in pts:
                raise UnknownPoint(f"({x}, {y})")
        for x in self.points:
            if (x, x) not in self.order:
                raise NotAPreorder(f"order is not reflexive at {x}")
        for x, y in self.order:
            for y2, z in self.order:
                if y2 == y and (x, z) not in self.order:
                    raise NotAPreorder(
                        f"order is not transitive: ({x}, {y}), ({y}, {z})")


def finite_space(points, pairs) -> FiniteSpace:
    """Build a space from generating specialization pairs; the reflexive
    transitive closure is taken automatically."""
    points = tuple(points)
    rel = {(x, x) for x in points}
    rel.update(pairs)
    changed = True
    while changed:
        changed = False
        for x, y in list(rel):
            for y2, z in list(rel):
                if y2 == y and (x, z) not in rel:
                    rel.add((x, z))
                    changed = True
    return FiniteSpace(points, frozenset(rel))


def closure(X: FiniteSpace, S) -> frozenset:
    S = set(S)
    for s in S:
        if s not in X.points:
            raise UnknownPoint(str(s))
    return frozenset(x for x in X.points if any((x, s) in X.order for s in S))


def is_kolmogorov(X: FiniteSpace) -> bool:
    return not any((x, y) in X.order and (y, x) in X.order and x != y
                   for x, y in X.order)


def _down_sets(X: FiniteSpace):
    n = len(X.points)
    for mask in range(1 << n):
        S = frozenset(X.points[i] for i in range(n) if mask >> i & 1)
        if closure(X, S) == S:
            yield S


def is_sober(X: FiniteSpace) -> bool:
    """Every irreducible closed subset has a unique generic point.

    A closed subset is irreducible iff it is nonempty and any two of its
    points have a common upper bound inside it (checked by enumeration).
    """
    for C in _down_sets(X):
        if not C:
            continue
        irreducible = all(
            any((x, u) in X.order and (y, u) in X.order for u in C)
            for x, y in combinations(C, 2)) if len(C) > 1 else True
        if not irreducible:
            continue
        maxima = [x for x in C if all((y, x) in X.order for y in C)]
        if len(maxima) != 1:
            return False
    return True


def constructible_sets(X: FiniteSpace):
    """On a finite Kolmogorov space every subset is constructible.

    Returns (count, trace) where count = 2^|points| and the trace lists,
    for each singleton, the open up-set and closed down-set whose
    intersection is exactly that singleton.
    """
    if not is_kolmogorov(X):
        raise NotKolmogorov("constructible count needs a Kolmogorov space")
    # up(x) & down(x) = {x}: the order is reflexive and, T0, antisymmetric
    return 2 ** len(X.points), [
        (x, frozenset(y for y in X.points if (x, y) in X.order),
         closure(X, {x})) for x in X.points]


@dataclass(frozen=True)
class SpvModel:
    space: FiniteSpace
    valuations: dict  # label -> Valuation


MAX_BOUND = 10000  # largest prime bound spv_enumerate accepts


def _primes_up_to(bound: int):
    """The primes <= bound, by the sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 1)
    for n in range(2, isqrt(bound) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, bound + 1, n)))
    return [n for n in range(bound + 1) if sieve[n]]


def spv_enumerate(ring: BaseRing, bound: int) -> SpvModel:
    """Hard-enumerated valuation spectrum of Z, Q or a finite field, with
    primes listed up to the bound (at most MAX_BOUND)."""
    if bound > MAX_BOUND:
        raise TooLarge(f"prime bound {bound} is above {MAX_BOUND}")
    if ring.kind is RingKind.FINITE_FIELD:
        label = "|.|_0"
        space = finite_space([label], [])
        vals = {label: trivial_valuation(ring, PrimeIdealDescriptor.zero())}
    elif ring.kind is RingKind.RATIONALS_Q:
        primes = _primes_up_to(bound)
        labels = ["|.|_0"] + [f"|.|_{p}" for p in primes]
        pairs = [(lab, "|.|_0") for lab in labels]
        space = finite_space(labels, pairs)
        vals = {"|.|_0": trivial_valuation(ring, PrimeIdealDescriptor.zero())}
        for p in primes:
            vals[f"|.|_{p}"] = padic_valuation(ring, p)
    elif ring.kind is RingKind.INTEGERS_Z:
        primes = _primes_up_to(bound)
        labels = ["|.|_0"]
        pairs = []
        vals = {"|.|_0": trivial_valuation(ring, PrimeIdealDescriptor.zero())}
        for p in primes:
            lp, l0p = f"|.|_{p}", f"|.|_0{p}"
            labels.extend([lp, l0p])
            pairs.extend([(lp, "|.|_0"), (l0p, lp)])
            vals[lp] = padic_valuation(ring, p)
            vals[l0p] = trivial_valuation(ring, PrimeIdealDescriptor.prime(p))
        space = finite_space(labels, pairs)
    else:
        raise UnsupportedRing(f"no enumeration for {ring.kind}")
    return SpvModel(space, vals)


@dataclass(frozen=True)
class FactorizationReport:
    """w = (v')|_L where v = (v')/H: a horizontal specialization of a
    vertical specialization."""

    v_prime: Valuation
    H: ConvexSubgroup
    L: ConvexSubgroup


def factor_specialization(m: SpvModel, v_label: str, w_label: str) -> FactorizationReport:
    if v_label not in m.valuations or w_label not in m.valuations:
        raise UnknownPoint(f"{v_label}, {w_label}")
    if (w_label, v_label) not in m.space.order:
        raise NotASpecialization(f"{w_label} is not a specialization of {v_label}")
    v, w = m.valuations[v_label], m.valuations[w_label]
    if v_label == w_label or v.kind is ValuationKind.PADIC:
        # w = v, or w = |.|_0p, the restriction of |.|_p to the trivial group
        v_prime, H = v, trivial_subgroup
    else:
        # v = |.|_0, the quotient of v' = |.|_p by its whole value group
        v_prime = w if w.kind is ValuationKind.PADIC else \
            padic_valuation(v.ring, w.supp.p)
        H = full_subgroup
    G = value_group(v_prime)
    L = full_subgroup(G) if w == v_prime else trivial_subgroup(G)
    return FactorizationReport(v_prime, H(G), L)
