"""Point model of the adic closed unit disc over Q_p.

Four kinds of points are supported, all with exact rational data:

* ``Classical(c)`` -- evaluation at a center c with |c|_p <= 1, composed
  with the p-adic absolute value (type 1).
* ``Ball(c, r)`` -- sup norm over the disc D(c, r), computed as
  max_n |a_n| r^n after recentering (type 2 when r is a power of p,
  type 3 otherwise; r = 1 is the Gauss point).
* ``Type5Below(c, r)`` / ``Type5Above(c, r)`` -- the height-2 points with
  values max_n |a_n| g^n in the radius groups, g infinitesimally below
  (resp. above) r.

Dead-end points (type 4) need infinite nested-disc data and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import polys
from .errors import (
    ContextMismatch,
    MalformedPoint,
    MalformedSubset,
    NotTypeFive,
    NotUnitIdeal,
    ParseError,
    ZeroSeries,
    check_work,
)
from .ordgroup import (
    Group,
    pos_element,
    pos_rational_group,
    radius_above_group,
    radius_below_group,
    radius_element,
)
from .tate import (PadicContext, TateSeries, generates_unit_ideal, parse_series,
                   render_series, series_mul)
from .value import ZERO, Value, nonzero, value_le


class PointKind(Enum):
    CLASSICAL = "classical"
    BALL = "ball"
    TYPE5_BELOW = "below"
    TYPE5_ABOVE = "above"


class PointType(Enum):
    TYPE1 = "1"
    TYPE2 = "2"
    TYPE3 = "3"
    TYPE5_BELOW = "5<"
    TYPE5_ABOVE = "5>"


@dataclass(frozen=True)
class DiscPoint:
    ctx: PadicContext
    kind: PointKind
    center: Fraction
    radius: Fraction | None = None

    def __post_init__(self):
        if polys.padic_abs(self.center, self.ctx.p) > 1:
            raise MalformedPoint(f"center {self.center} lies outside the unit disc")
        if self.kind is PointKind.CLASSICAL:
            if self.radius is not None:
                raise MalformedPoint("a classical point takes no radius")
        elif self.radius is None:
            raise MalformedPoint(f"a {self.kind.value} point needs a radius")
        elif self.kind is PointKind.TYPE5_ABOVE:
            # the point above radius 1 is not a point of the disc
            if not (0 < self.radius < 1):
                raise MalformedPoint("Type5Above radius must lie in (0, 1)")
        elif not (0 < self.radius <= 1):
            raise MalformedPoint("radius must lie in (0, 1]")


def classical(p: int, c) -> DiscPoint:
    return DiscPoint(PadicContext(p), PointKind.CLASSICAL, Fraction(c))


def ball(p: int, c, r) -> DiscPoint:
    return DiscPoint(PadicContext(p), PointKind.BALL, Fraction(c), Fraction(r))


def gauss_point(p: int) -> DiscPoint:
    return ball(p, 0, 1)


def type5_below(p: int, c, r) -> DiscPoint:
    return DiscPoint(PadicContext(p), PointKind.TYPE5_BELOW, Fraction(c), Fraction(r))


def type5_above(p: int, c, r) -> DiscPoint:
    return DiscPoint(PadicContext(p), PointKind.TYPE5_ABOVE, Fraction(c), Fraction(r))


def _is_power_of_p(r: Fraction, p: int) -> bool:
    # a rational in (0, 1] lies in p^Q iff it lies in p^Z, and r = p^k
    # exactly when r * |r|_p = 1
    return r * polys.padic_abs(r, p) == 1


def classify(x: DiscPoint) -> PointType:
    if x.kind is PointKind.CLASSICAL:
        return PointType.TYPE1
    if x.kind is PointKind.TYPE5_BELOW:
        return PointType.TYPE5_BELOW
    if x.kind is PointKind.TYPE5_ABOVE:
        return PointType.TYPE5_ABOVE
    if _is_power_of_p(x.radius, x.ctx.p):
        return PointType.TYPE2
    return PointType.TYPE3


def value_group_of(x: DiscPoint) -> Group:
    if x.kind in (PointKind.CLASSICAL, PointKind.BALL):
        return pos_rational_group()
    if x.kind is PointKind.TYPE5_BELOW:
        return radius_below_group(x.radius)
    return radius_above_group(x.radius)


def _smallest_center(x: DiscPoint):
    """The least residue c' of the center c = u/w modulo p^k, p^-k the
    largest power of p at most r (below r on a Type5Below point's open
    disc): D(c', r) = D(c, r).  c when p^k has more bits than max(|u|, w)."""
    u, w = x.center.numerator, x.center.denominator
    s, t, pk = x.radius.numerator, x.radius.denominator, 1
    bits = max(abs(u), w).bit_length()
    if t.bit_length() - s.bit_length() > bits:    # p^k >= t/s is longer
        return x.center
    while pk * s < t + (x.kind is PointKind.TYPE5_BELOW):
        pk *= x.ctx.p
    return x.center if pk.bit_length() > bits else u * pow(w, -1, pk) % pk


def eval_at(x: DiscPoint, f: TateSeries) -> Value:
    """The valuation of the point applied to f, in x's value group.

    f is recentred at _smallest_center(x) as content * sum e_n X^n, where
    |a_n| r^n = |content|_p p^(-v_n) (s/t)^n, v_n = v_p(e_n): the term k
    beats the best term n < k when p^(v_n) s^(k-n) beats p^(v_k) t^(k-n),
    in integers.  Work above MAX_WORK raises TooLarge before it starts.
    """
    if x.ctx != f.ctx:
        raise ContextMismatch(f"{x.ctx} vs {f.ctx}")
    p = x.ctx.p
    N = polys.degree(f.poly)
    if x.kind is PointKind.CLASSICAL:
        # Horner's scheme on N * bits(u)-bit integers, and a gcd quadratic
        # in N * bits(w): at most 1 ns per unit at degrees 60 to 1000 and
        # centres of 1 to 8000 digits
        u, w = x.center.numerator, x.center.denominator
        b = u.bit_length() + 2 * w.bit_length()
        check_work(N * N * b * (b + 64) // 2048,
                   f"disc: evaluation of degree {N} at a {b}-bit centre")
        v = polys.poly_eval(f.poly, x.center)
        if v == 0:
            return ZERO
        return nonzero(pos_element(polys.padic_abs(v, p)))
    if f.is_zero():
        return ZERO
    s, t = x.radius.numerator, x.radius.denominator
    bits = s.bit_length() + t.bit_length()
    # 1/10 per unit, rounded up: 0.02 to 0.09 ns each up to degree 10000
    check_work(-(-(N + 1) * N * bits * (1 + bits // 64) // 10),
               f"disc: the terms of degree {N} at a {bits}-bit radius")
    shifted = polys.taylor_shift(f.poly, _smallest_center(x))
    coeffs = shifted.coeffs
    # g slightly below r: the least index wins ties; above r: the greatest
    n = next(k for k, e in enumerate(coeffs) if e)
    vn, ds, dt = polys.padic_exponent(coeffs[n], p), 1, 1
    for k in range(n + 1, len(coeffs)):
        ds, dt = ds * s, dt * t     # s^(k - n), t^(k - n)
        if coeffs[k]:
            v = polys.padic_exponent(coeffs[k], p)
            old, new = p ** vn * ds, p ** v * dt
            if old > new or old == new and x.kind is PointKind.TYPE5_ABOVE:
                n, vn, ds, dt = k, v, 1, 1
    v = polys.padic_exponent(shifted.content, p) + vn    # |a_n| = p^-v
    a, b = (1, p ** v) if v >= 0 else (p ** -v, 1)
    if x.kind is PointKind.BALL:
        return nonzero(pos_element(Fraction(a * s ** n, b * t ** n)))
    group = radius_below_group if x.kind is PointKind.TYPE5_BELOW \
        else radius_above_group
    return nonzero(radius_element(group(x.radius), Fraction(a, b), n))


def point_eq(x: DiscPoint, y: DiscPoint) -> bool:
    """Equality of the underlying valuations (restricted rational model).

    Ball and Type5Above points depend only on the closed disc D(c, r);
    Type5Below points only on the open disc.  Distinct kinds are distinct:
    at radii outside p^Z the type-5 constructors still carry formally
    distinct value-group data in this model (see point_eq_warns).
    """
    if x.ctx != y.ctx:
        raise ContextMismatch(f"{x.ctx} vs {y.ctx}")
    if x.kind != y.kind:
        return False
    p = x.ctx.p
    if x.kind is PointKind.CLASSICAL:
        return x.center == y.center
    if x.radius != y.radius:
        return False
    d = polys.padic_abs(x.center - y.center, p)
    if x.kind is PointKind.TYPE5_BELOW:
        return d < x.radius
    return d <= x.radius


def point_eq_warns(x: DiscPoint, y: DiscPoint) -> bool:
    """True when the comparison touches a type-5 point at a non-p-power
    radius, where an algebraically closed base field would collapse the
    point onto its ball."""
    for z in (x, y):
        if z.kind in (PointKind.TYPE5_BELOW, PointKind.TYPE5_ABOVE):
            if not _is_power_of_p(z.radius, z.ctx.p):
                return True
    return False


def disc_specializes(x: DiscPoint, y: DiscPoint) -> bool:
    """True iff x lies in the closure of y.

    All points except type 2 are closed; the closure of a type-2 ball
    consists of the ball and the type-5 points around it.
    """
    if x.ctx != y.ctx:
        raise ContextMismatch(f"{x.ctx} vs {y.ctx}")
    if x.kind == y.kind and point_eq(x, y):
        return True
    if classify(y) is not PointType.TYPE2:
        return False
    if x.kind not in (PointKind.TYPE5_BELOW, PointKind.TYPE5_ABOVE):
        return False
    if x.radius != y.radius:
        return False
    return polys.padic_abs(x.center - y.center, x.ctx.p) <= y.radius


def height1_generization(x: DiscPoint) -> DiscPoint:
    """The unique height-1 vertical generization of a type-5 point: the
    ball on the same disc."""
    if x.kind not in (PointKind.TYPE5_BELOW, PointKind.TYPE5_ABOVE):
        raise NotTypeFive(f"{x.kind} point has no height-1 generization here")
    return ball(x.ctx.p, x.center, x.radius)


# --- rational subsets and covers -------------------------------------------

@dataclass(frozen=True)
class RationalSubsetSpec:
    """R(T/s) = {x : |t(x)| <= |s(x)| != 0 for all t in T}."""

    numerators: tuple  # tuple of TateSeries
    denominator: TateSeries
    unit_ideal: bool   # cached openness witness


def rational_subset(numerators, denominator: TateSeries) -> RationalSubsetSpec:
    numerators = tuple(numerators)
    if not numerators:
        raise MalformedSubset("empty numerator set")
    for t in numerators:
        if t.ctx != denominator.ctx:
            raise ContextMismatch(f"{t.ctx} vs {denominator.ctx}")
    # R(T/s) = R(T+{s}/s), so the openness witness may use s as well
    witness = generates_unit_ideal(numerators + (denominator,))
    return RationalSubsetSpec(numerators, denominator, witness)


def in_rational_subset(x: DiscPoint, R: RationalSubsetSpec) -> bool:
    if not R.unit_ideal:
        raise MalformedSubset("numerators do not generate the unit ideal")
    if x.ctx != R.denominator.ctx:
        raise ContextMismatch(f"{x.ctx} vs {R.denominator.ctx}")
    vs = eval_at(x, R.denominator)
    if vs.is_zero():
        return False
    return all(value_le(eval_at(x, t), vs) for t in R.numerators)


def intersect_rational(R1: RationalSubsetSpec, R2: RationalSubsetSpec) -> RationalSubsetSpec:
    """R(T1/s1) and R(T2/s2) intersect in R(T/s1*s2) with
    T = {t * t' : t in T1 + {s1}, t' in T2 + {s2}}."""
    if R1.denominator.ctx != R2.denominator.ctx:
        raise ContextMismatch("different primes")
    t1 = set(R1.numerators) | {R1.denominator}
    t2 = set(R2.numerators) | {R2.denominator}
    prods = {series_mul(a, b) for a in t1 for b in t2}
    return rational_subset(sorted(prods, key=lambda f: f.poly.items()),
                           series_mul(R1.denominator, R2.denominator))


class CoverKind(Enum):
    LAURENT = "laurent"
    RATIONAL = "rational"


@dataclass(frozen=True)
class CoverSpec:
    kind: CoverKind
    generators: tuple  # (f,) for Laurent, T for rational
    members: tuple     # RationalSubsetSpec per member


def laurent_cover(f: TateSeries) -> CoverSpec:
    """The two-member cover {|f| <= 1}, {|f| >= 1}."""
    if f.is_zero():
        raise ZeroSeries("Laurent cover of the zero series")
    one = TateSeries(f.ctx, polys.poly_const(1))
    return CoverSpec(CoverKind.LAURENT, (f,),
                     (rational_subset((f,), one), rational_subset((one,), f)))


def rational_cover(gens) -> CoverSpec:
    gens = tuple(gens)
    if not generates_unit_ideal(gens):
        raise NotUnitIdeal("generators have a common zero in the disc")
    # tuple() of a list, not of a generator: see polys._normal
    members = tuple([rational_subset(gens, t) for t in gens])
    return CoverSpec(CoverKind.RATIONAL, gens, members)


# --- point literals (CLI interface) ----------------------------------------

def parse_point(text: str, p: int) -> DiscPoint:
    text = text.strip()
    head, _, rest = text.partition(":")
    if head in ("deadend", "type4"):
        raise ParseError("type-4 dead-end points need infinite nested-disc "
                         "data and are not supported")
    try:
        if head == "classical":
            return classical(p, polys.parse_rational(rest))
        if head in ("ball", "below", "above"):
            c_text, r_text = rest.split(",")
            c, r = polys.parse_rational(c_text), polys.parse_rational(r_text)
            if head == "ball":
                return ball(p, c, r)
            if head == "below":
                return type5_below(p, c, r)
            return type5_above(p, c, r)
    except (ValueError, MalformedPoint) as exc:
        raise ParseError(f"bad point literal {text!r}: {exc}") from exc
    raise ParseError(f"unknown point kind {head!r}")


def render_point(x: DiscPoint) -> str:
    if x.kind is PointKind.CLASSICAL:
        return f"classical:{x.center}"
    name = {PointKind.BALL: "ball", PointKind.TYPE5_BELOW: "below",
            PointKind.TYPE5_ABOVE: "above"}[x.kind]
    return f"{name}:{x.center},{x.radius}"


def parse_rational_subset(text: str, p: int) -> RationalSubsetSpec:
    text = text.strip()
    if not (text.startswith("R(") and text.endswith(")")):
        raise ParseError(f"bad rational-subset literal {text!r}")
    body = text[2:-1]
    if ";" not in body:
        raise ParseError("rational-subset literal needs 'R(t1,...;s)'")
    nums_text, s_text = body.rsplit(";", 1)
    nums = tuple([parse_series(t, p) for t in nums_text.split(",")])
    return rational_subset(nums, parse_series(s_text, p))


def render_rational_subset(R: RationalSubsetSpec) -> str:
    nums = ",".join(render_series(t) for t in R.numerators)
    return f"R({nums};{render_series(R.denominator)})"
