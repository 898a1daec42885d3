"""Concrete valuations on the supported base rings.

Supported rings: Z, Q, F_p, Q[T], Q(T).  Ring elements are int, Fraction,
int mod p, :class:`polys.Poly`, or a reduced pair of Polys with monic
denominator; Q[T] ideal generators are Polys too.

Four valuation kinds (trivial with a support, |.|_p, degree, disc point) form
a closed tagged union so that support, equivalence, specialization and the
horizontal/vertical calculus all have exact closed-form branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from math import isqrt

from . import disc, polys
from .errors import (
    CharacteristicGroupNotContained,
    MalformedIdeal,
    MalformedValuation,
    NotContinuous,
    NotConvexSubgroupOfValueGroup,
    NotPrime,
    ParseError,
    UnsupportedKind,
    WrongRing,
)
from .ordgroup import (
    ConvexSubgroup,
    Group,
    convex_subgroup_generated,
    group_cmp,
    full_subgroup,
    is_full_subgroup,
    is_trivial_subgroup,
    pos_element,
    pos_rational_group,
    subgroup_contains_subgroup,
    trivial_group,
    trivial_subgroup,
    unit,
)
from .polys import Poly
from .tate import TateSeries, is_prime
from .value import (
    ZERO,
    Value,
    nonzero,
    value_cofinal,
    value_in_subgroup,
    value_le,
)


class RingKind(Enum):
    INTEGERS_Z = "Z"
    RATIONALS_Q = "Q"
    FINITE_FIELD = "F"
    POLY_OVER_Q = "Q[T]"
    RATFUNC_Q = "Q(T)"


@dataclass(frozen=True)
class BaseRing:
    kind: RingKind
    p: int = 0

    def __post_init__(self):
        if self.kind is RingKind.FINITE_FIELD and not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")

    def __str__(self) -> str:
        if self.kind is RingKind.FINITE_FIELD:
            return f"F{self.p}"
        return self.kind.value


_ORDER_KEY = cmp_to_key(group_cmp)

RING_Z = BaseRing(RingKind.INTEGERS_Z)
RING_Q = BaseRing(RingKind.RATIONALS_Q)
RING_QT = BaseRing(RingKind.POLY_OVER_Q)
RING_QRAT = BaseRing(RingKind.RATFUNC_Q)


def finite_field(p: int) -> BaseRing:
    return BaseRing(RingKind.FINITE_FIELD, p)


def ratfunc(num, den):
    """Reduced representative with monic denominator, from two Polys or
    {degree: rational} mappings."""
    num, den = polys.poly(num), polys.poly(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (polys.ZERO, polys.poly_const(1))
    g = polys.poly_gcd(num, den)
    num, _ = polys.poly_divmod(num, g)
    den, _ = polys.poly_divmod(den, g)
    lead = den[polys.degree(den)]
    return polys.poly_mul(num, polys.poly_const(1 / lead)), polys.poly_monic(den)


def ring_is_zero(ring: BaseRing, a) -> bool:
    k = ring.kind
    if k is RingKind.FINITE_FIELD:
        return a % ring.p == 0
    if k is RingKind.POLY_OVER_Q:
        return not a
    if k is RingKind.RATFUNC_Q:
        return not a[0]
    return a == 0


class IdealKind(Enum):
    ZERO_IDEAL = "zero"
    PRIME_P = "prime"
    POLY_GEN = "poly"


@dataclass(frozen=True)
class PrimeIdealDescriptor:
    kind: IdealKind
    p: int = 0
    generator: Poly | None = None  # monic irreducible, for POLY_GEN

    @staticmethod
    def zero() -> "PrimeIdealDescriptor":
        return PrimeIdealDescriptor(IdealKind.ZERO_IDEAL)

    @staticmethod
    def prime(p: int) -> "PrimeIdealDescriptor":
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        return PrimeIdealDescriptor(IdealKind.PRIME_P, p=p)

    @staticmethod
    def poly(generator: Poly) -> "PrimeIdealDescriptor":
        gen = polys.poly_monic(generator)
        if polys.degree(gen) < 1:
            raise MalformedIdeal("generator must be nonconstant")
        if not _poly_is_irreducible(gen):
            raise MalformedIdeal("generator must be irreducible over Q")
        return PrimeIdealDescriptor(IdealKind.POLY_GEN, generator=gen)


def _poly_is_irreducible(f: Poly) -> bool:
    """Irreducibility over Q for the small degrees this library builds:
    degree 1 always; degree 2 and 3 iff no rational root; higher degrees
    are rejected (not needed by any supported construction).  A root a/b
    of the primitive part e has a | e_0 and b | e_N (rational root
    theorem)."""
    d, e = polys.degree(f), f.coeffs
    if d == 1:
        return True
    if d not in (2, 3):
        raise UnsupportedKind(f"irreducibility test not supported for degree {d}")
    return e[0] != 0 and not any(polys.poly_eval(f, Fraction(s * a, b)) == 0
                                 for a in _divisors(abs(e[0]))
                                 for b in _divisors(e[-1]) for s in (1, -1))


def _divisors(n: int) -> set:
    return {x for d in range(1, isqrt(n) + 1) if n % d == 0 for x in (d, n // d)}


def ideal_member(ring: BaseRing, P: PrimeIdealDescriptor, a) -> bool:
    if P.kind is IdealKind.ZERO_IDEAL:
        return ring_is_zero(ring, a)
    if P.kind is IdealKind.PRIME_P:
        return a % P.p == 0
    _, r = polys.poly_divmod(a, P.generator)
    return not r


@dataclass(frozen=True)
class IdealOfDefinition:
    ring: BaseRing
    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise MalformedIdeal("ideal needs at least one generator")


class ValuationKind(Enum):
    TRIVIAL = "trivial"
    PADIC = "padic"
    DEGREE = "deg"
    PADIC_POLY = "padic-poly"


@dataclass(frozen=True)
class Valuation:
    ring: BaseRing
    kind: ValuationKind
    p: int = 0
    rho: Fraction = Fraction(1, 2)
    supp: PrimeIdealDescriptor | None = None
    point: object = None  # PADIC_POLY disc point


def trivial_valuation(ring: BaseRing, supp: PrimeIdealDescriptor) -> Valuation:
    return Valuation(ring, ValuationKind.TRIVIAL, supp=supp)


def padic_valuation(ring: BaseRing, p: int, rho=None) -> Valuation:
    if ring.kind not in (RingKind.INTEGERS_Z, RingKind.RATIONALS_Q):
        raise WrongRing(f"p-adic valuations live on Z or Q here, not on {ring}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    rho = Fraction(rho) if rho is not None else Fraction(1, p)
    if not (0 < rho < 1):
        raise MalformedValuation("rho must lie in (0, 1)")
    return Valuation(ring, ValuationKind.PADIC, p=p, rho=rho)


def degree_valuation(rho) -> Valuation:
    rho = Fraction(rho)
    if not (0 < rho < 1):
        raise MalformedValuation("rho must lie in (0, 1)")
    return Valuation(RING_QRAT, ValuationKind.DEGREE, rho=rho)


def disc_point_valuation(point) -> Valuation:
    return Valuation(RING_QT, ValuationKind.PADIC_POLY, p=point.ctx.p, point=point)


def value_group(v: Valuation) -> Group:
    k = v.kind
    if k is ValuationKind.TRIVIAL:
        return trivial_group()
    if k in (ValuationKind.PADIC, ValuationKind.DEGREE):
        return pos_rational_group()
    return disc.value_group_of(v.point)


def eval_valuation(v: Valuation, a) -> Value:
    """Apply the valuation to a ring element; exact in every branch."""
    k = v.kind
    if k is ValuationKind.TRIVIAL:
        if ideal_member(v.ring, v.supp, a):
            return ZERO
        return nonzero(unit(trivial_group()))
    if k is ValuationKind.PADIC:
        if a == 0:
            return ZERO
        return nonzero(pos_element(v.rho ** polys.padic_exponent(Fraction(a), v.p)))
    if k is ValuationKind.DEGREE:
        num, den = a
        if not num:
            return ZERO
        return nonzero(pos_element(v.rho ** (polys.degree(den) - polys.degree(num))))
    return disc.eval_at(v.point, TateSeries(v.point.ctx, a))


def support(v: Valuation) -> PrimeIdealDescriptor:
    k = v.kind
    if k is ValuationKind.TRIVIAL:
        return v.supp
    if k in (ValuationKind.PADIC, ValuationKind.DEGREE):
        return PrimeIdealDescriptor.zero()
    if v.point.kind is disc.PointKind.CLASSICAL:
        gen = polys.poly_sub(polys.poly_x(), polys.poly_const(v.point.center))
        return PrimeIdealDescriptor.poly(gen)
    return PrimeIdealDescriptor.zero()


def default_probes(ring: BaseRing):
    k = ring.kind
    if k is RingKind.INTEGERS_Z:
        return list(range(1, 31))
    if k is RingKind.RATIONALS_Q:
        return [Fraction(n, d) for n in range(1, 8) for d in range(1, 8)]
    if k is RingKind.FINITE_FIELD:
        return list(range(1, ring.p))
    if k is RingKind.POLY_OVER_Q:
        return [polys.poly_const(n) for n in (1, 2, 5)] + [
            polys.poly_x(), polys.poly_add(polys.poly_x(), polys.poly_const(1))]
    return [(polys.poly_const(1), polys.poly_const(1)),
            (polys.poly_x(), polys.poly_const(1)),
            (polys.poly_const(1), polys.poly_x())]


def equivalent(v: Valuation, w: Valuation) -> bool:
    """Equivalence of valuations, decided structurally per kind.

    The structural answer is cross-checked on a probe family: equivalent
    valuations must induce the same divisibility order |a| <= |b|.
    """
    if v.ring != w.ring:
        raise WrongRing(f"{v.ring} vs {w.ring}")
    if v.kind != w.kind:
        result = False
    elif v.kind is ValuationKind.TRIVIAL:
        result = v.supp == w.supp
    elif v.kind is ValuationKind.PADIC:
        result = v.p == w.p  # rho is irrelevant to the equivalence class
    elif v.kind is ValuationKind.DEGREE:
        result = True
    else:    # disc points at two primes are distinct valuations of Q[T]
        result = v.p == w.p and disc.point_eq(v.point, w.point)
    if result:
        probes = default_probes(v.ring)[:10]
        for a in probes:
            for b in probes:
                assert value_le(eval_valuation(v, a), eval_valuation(v, b)) == \
                    value_le(eval_valuation(w, a), eval_valuation(w, b))
    return result


def characteristic_group(v: Valuation) -> ConvexSubgroup:
    """Convex subgroup generated by the image values >= 1: trivial for |.|_p
    on Z, where |n|_p <= 1, and full otherwise (the trivial group, the fields
    Q and Q(T), and the constants p^-m of Q[T] at disc points)."""
    G = value_group(v)
    if v.kind is ValuationKind.PADIC and v.ring.kind is RingKind.INTEGERS_Z:
        return trivial_subgroup(G)
    return full_subgroup(G)


def vertical_quotient(v: Valuation, H: ConvexSubgroup) -> Valuation:
    """v/H: compose with the order-preserving quotient projection."""
    G = value_group(v)
    if H.group != G:
        raise NotConvexSubgroupOfValueGroup(f"{H.group} vs {G}")
    if is_trivial_subgroup(H):
        return v
    if is_full_subgroup(H):
        return trivial_valuation(v.ring, support(v))
    # only a type-5 disc point's radius group has a third convex subgroup,
    # the infinitesimal one, and the quotient by it is the ball point
    return disc_point_valuation(disc.height1_generization(v.point))


def horizontal_restrict(v: Valuation, H: ConvexSubgroup) -> Valuation:
    """v|_H: keep values inside H, send everything else to zero.

    Requires H convex in the value group and containing the
    characteristic group.
    """
    G = value_group(v)
    if H.group != G:
        raise NotConvexSubgroupOfValueGroup(f"{H.group} vs {G}")
    if not subgroup_contains_subgroup(H, characteristic_group(v)):
        raise CharacteristicGroupNotContained(
            "restriction subgroup must contain the characteristic group")
    if is_full_subgroup(H):
        return v
    # H contains the characteristic group, which is full for every kind
    # but |.|_p on Z (characteristic_group), so only |.|_p on Z gets here,
    # with the trivial subgroup, Q_{>0} having no third convex subgroup.
    return trivial_valuation(v.ring, PrimeIdealDescriptor.prime(v.p))


def c_gamma_I(v: Valuation, I: IdealOfDefinition) -> ConvexSubgroup:
    """The greatest convex subgroup for which all generator values are
    cofinal; equals the characteristic group when a generator value
    already meets it, and the full group when v kills the ideal."""
    if I.ring != v.ring:
        raise WrongRing(f"{I.ring} vs {v.ring}")
    G = value_group(v)
    values = [eval_valuation(v, a) for a in I.generators]
    if all(val.is_zero() for val in values):
        return full_subgroup(G)
    cg = characteristic_group(v)
    if any(value_in_subgroup(val, cg) for val in values):
        return cg
    h = max((val.elt for val in values if not val.is_zero()), key=_ORDER_KEY)
    return convex_subgroup_generated(h)


def retract(v: Valuation, I: IdealOfDefinition) -> Valuation:
    """Restriction onto c_gamma_I(v, I); idempotent, fixes members of
    the retracted spectrum."""
    return horizontal_restrict(v, c_gamma_I(v, I))


def is_continuous(v: Valuation, I: IdealOfDefinition) -> bool:
    """True iff every generator value is cofinal for the value group."""
    if I.ring != v.ring:
        raise WrongRing(f"{I.ring} vs {v.ring}")
    G = value_group(v)
    full = full_subgroup(G)
    return all(value_cofinal(eval_valuation(v, a), full) for a in I.generators)


def is_analytic(v: Valuation, I: IdealOfDefinition) -> bool:
    """True iff the support does not contain the ideal of definition."""
    if not is_continuous(v, I):
        raise NotContinuous("analyticity is defined for continuous valuations")
    return any(not eval_valuation(v, a).is_zero() for a in I.generators)


def specializes(v: Valuation, w: Valuation) -> bool:
    """Decide "v lies in the closure of w", by closed forms.

    The opens {|f| <= |s| != 0} form a subbasis of Spv A, and trivial_P
    lies in such an open exactly when s is not in P.  So, for w not
    equivalent to v:

    * w trivial with support P: the closure of w is {u : P is contained
      in supp u}; the nonzero primes of Z and Q[T] are maximal, so v is
      in it iff P = (0) or P = supp v.
    * w = |.|_p: its closure is {|.|_p, |.|_0p}, so v must be trivial
      with support (p).
    * v and w disc points: disc_specializes at one prime; at two, p for v,
      {|1| <= |p| != 0} holds w and not v.

    These are complete for the valuations built here: deg on Q(T) is a
    closed point, and no trivial valuation lies in the closure of a disc
    point, because {|1| <= |p| != 0} holds the first and not the second.
    """
    if equivalent(v, w):  # raises WrongRing for two rings
        return True
    if w.kind is ValuationKind.TRIVIAL:
        return w.supp.kind is IdealKind.ZERO_IDEAL or w.supp == support(v)
    if w.kind is ValuationKind.PADIC:
        return v.kind is ValuationKind.TRIVIAL and \
            v.supp == PrimeIdealDescriptor(IdealKind.PRIME_P, p=w.p)
    if v.kind is ValuationKind.PADIC_POLY and w.kind is ValuationKind.PADIC_POLY:
        return v.p == w.p and disc.disc_specializes(v.point, w.point)
    return False


# --- literals (CLI interface) ----------------------------------------------

def parse_valuation(text: str, ring: BaseRing) -> Valuation:
    text = text.strip()
    head, _, rest = text.partition(":")
    try:
        if head == "padic":
            return padic_valuation(ring, polys.parse_integer(rest))
        if head == "trivial":
            n = polys.parse_integer(rest)
            if n == 0:
                return trivial_valuation(ring, PrimeIdealDescriptor.zero())
            return trivial_valuation(ring, PrimeIdealDescriptor.prime(n))
        if head == "deg":
            return degree_valuation(polys.parse_rational(rest))
    except (ParseError, NotPrime, MalformedValuation) as exc:
        raise ParseError(f"bad valuation literal {text!r}: {exc}") from exc
    raise ParseError(f"unknown valuation literal {text!r}")


def render_valuation(v: Valuation) -> str:
    if v.kind is ValuationKind.PADIC:
        return f"padic:{v.p}"
    if v.kind is ValuationKind.TRIVIAL:
        if v.supp.kind is IdealKind.ZERO_IDEAL:
            return "trivial:0"
        if v.supp.kind is IdealKind.PRIME_P:
            return f"trivial:{v.supp.p}"
        return f"trivial:{render_ideal_descriptor(v.supp)}"
    if v.kind is ValuationKind.DEGREE:
        return f"deg:{v.rho}"
    return f"point:{disc.render_point(v.point)}"


def parse_ideal(text: str, ring: BaseRing) -> IdealOfDefinition:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"bad ideal literal {text!r}")
    if ring.kind is RingKind.RATFUNC_Q:
        raise WrongRing(f"no ideal of definition is read on {ring}")
    gens = []
    for part in text[1:-1].split(","):
        if ring.kind is RingKind.POLY_OVER_Q:
            gens.append(polys.parse_poly(part))
        elif ring.kind is RingKind.RATIONALS_Q:
            gens.append(Fraction(polys.parse_rational(part)))
        else:
            gens.append(polys.parse_integer(part))
    return IdealOfDefinition(ring, tuple(gens))


def render_ideal_descriptor(P: PrimeIdealDescriptor) -> str:
    if P.kind is IdealKind.ZERO_IDEAL:
        return "(0)"
    if P.kind is IdealKind.PRIME_P:
        return f"({P.p})"
    return f"({polys.render_poly(P.generator)})"


def render_ideal(I: IdealOfDefinition) -> str:
    parts = [polys.render_poly(g) if isinstance(g, Poly) else str(g)
             for g in I.generators]
    return "(" + ",".join(parts) + ")"
