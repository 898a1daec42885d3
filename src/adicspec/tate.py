"""Dense elements of the p-adic Tate algebra in one variable.

A :class:`TateSeries` is a :class:`polys.Poly` with a prime attached; the
polynomials are dense in Q_p<T>, and every operation implemented here
(Gauss norm, power-boundedness, Newton polygons, unit-ideal detection for
covers) is determined exactly on this dense subring, read off the content
and the primitive integer coefficients of the normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .errors import AllZero, ContextMismatch, NotPrime, TooLarge, ZeroSeries
from .ordgroup import pos_element
from .polys import Poly
from .value import ZERO, Value, nonzero


# The first 13 primes.  Miller-Rabin to all of them as bases is exact
# below PSI_13 (Sorenson & Webster, Math. Comp. 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Exact primality in O(log p) multiplications: trial division by the
    13 bases, then Miller-Rabin to them.  p >= PSI_13 raises TooLarge, so
    no prime is accepted on an unproven test.
    """
    if p >= PSI_13:
        raise TooLarge(f"{p}: primality is proven only below {PSI_13}")
    if p < 2:
        return False
    for q in _BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PadicContext:
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")


@dataclass(frozen=True)
class TateSeries:
    """Polynomial over Q, tagged with its prime."""

    ctx: PadicContext
    poly: Poly = polys.ZERO

    def as_dict(self) -> dict:
        return dict(self.poly.items())

    def is_zero(self) -> bool:
        return not self.poly


def series(p: int, coeffs) -> TateSeries:
    """The series with {degree: rational} coefficients (or a Poly)."""
    return TateSeries(PadicContext(p), polys.poly(coeffs))


def _ctx(f: TateSeries, g: TateSeries) -> PadicContext:
    if f.ctx != g.ctx:
        raise ContextMismatch(f"{f.ctx} vs {g.ctx}")
    return f.ctx


def series_add(f: TateSeries, g: TateSeries) -> TateSeries:
    return TateSeries(_ctx(f, g), polys.poly_add(f.poly, g.poly))


def series_sub(f: TateSeries, g: TateSeries) -> TateSeries:
    return TateSeries(_ctx(f, g), polys.poly_sub(f.poly, g.poly))


def series_mul(f: TateSeries, g: TateSeries) -> TateSeries:
    return TateSeries(_ctx(f, g), polys.poly_mul(f.poly, g.poly))


def series_pow(f: TateSeries, n: int) -> TateSeries:
    return TateSeries(f.ctx, polys.poly_pow(f.poly, n))


def gauss_norm(f: TateSeries) -> Value:
    """max_n |a_n|_p as a value in the positive-rational group: by Gauss's
    lemma the primitive part has norm 1, so this is |content|_p."""
    if f.is_zero():
        return ZERO
    return nonzero(pos_element(polys.padic_abs(f.poly.content, f.ctx.p)))


def is_power_bounded(f: TateSeries) -> bool:
    return polys.padic_abs(f.poly.content, f.ctx.p) <= 1


def is_top_nilpotent(f: TateSeries) -> bool:
    return polys.padic_abs(f.poly.content, f.ctx.p) < 1


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (degree, p-adic exponent of coefficient)."""

    vertices: tuple  # ((degree, int exponent), ...), increasing degree
    slopes: tuple    # ((slope Fraction, length int), ...), strictly increasing


def newton_polygon(f: TateSeries) -> NewtonPolygon:
    """Slope -s with length l certifies l roots of absolute value p^s."""
    if f.is_zero():
        raise ZeroSeries("Newton polygon of the zero series")
    p = f.ctx.p
    m = polys.padic_exponent(f.poly.content, p)
    pts = [(d, m + polys.padic_exponent(e, p))
           for d, e in enumerate(f.poly.coeffs) if e]
    # Andrew-monotone-chain lower hull over integer points.
    hull: list = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) <= (pt[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(pt)
    # the hull test pops collinear points, so the slopes strictly increase
    slopes = tuple((Fraction(y2 - y1, x2 - x1), x2 - x1)
                   for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    return NewtonPolygon(tuple(hull), slopes)


def generates_unit_ideal(gens) -> bool:
    """True iff the series have no common zero in the closed unit disc.

    Decided exactly by a rational gcd followed by a Newton-polygon test:
    the gcd is constant, or all its roots (counted by the polygon) have
    absolute value > 1.
    """
    gens = list(gens)
    if not gens:
        raise AllZero("empty generating set")
    ctx = gens[0].ctx
    for g in gens[1:]:
        _ctx(g, gens[0])
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        raise AllZero("all generators are zero")
    g = nonzero[0].poly
    for h in nonzero[1:]:
        g = polys.poly_gcd(g, h.poly)
    if polys.degree(g) == 0:
        return True
    if not g.coeffs[0]:
        return False  # 0 is a common root, and it lies in the disc
    np = newton_polygon(TateSeries(ctx, g))
    # slope > 0 means root valuation < 0, i.e. absolute value > 1
    return all(s > 0 for s, _ in np.slopes)


# --- text form (CLI interface) ---------------------------------------------

def parse_series(text: str, p: int) -> TateSeries:
    return TateSeries(PadicContext(p), polys.parse_poly(text))


def render_series(f: TateSeries) -> str:
    """Canonical rendering: descending degree, exact fractions."""
    return polys.render_poly(f.poly)
