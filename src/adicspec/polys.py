"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are plain dicts mapping degree -> nonzero Fraction; the zero
polynomial is the empty dict.  Kept deliberately low-tech so that every
module (Tate series, rational functions, Laurent splittings) can share it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def normalize(coeffs: dict) -> dict:
    return {d: Fraction(c) for d, c in coeffs.items() if c != 0}


def poly_const(c) -> dict:
    return normalize({0: Fraction(c)})


def poly_x(power: int = 1) -> dict:
    return {power: Fraction(1)}


def is_zero(f: dict) -> bool:
    return not f


def degree(f: dict) -> int:
    """Degree; -1 for the zero polynomial."""
    return max(f) if f else -1


def order(f: dict) -> int:
    """Lowest degree with nonzero coefficient; -1 for zero."""
    return min(f) if f else -1


def poly_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for d, c in g.items():
        out[d] = out.get(d, Fraction(0)) + c
        if out[d] == 0:
            del out[d]
    return out


def poly_neg(f: dict) -> dict:
    return {d: -c for d, c in f.items()}


def poly_sub(f: dict, g: dict) -> dict:
    return poly_add(f, poly_neg(g))


def poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for d1, c1 in f.items():
        for d2, c2 in g.items():
            d = d1 + d2
            out[d] = out.get(d, Fraction(0)) + c1 * c2
    return normalize(out)


def poly_scale(f: dict, c) -> dict:
    c = Fraction(c)
    if c == 0:
        return {}
    return {d: a * c for d, a in f.items()}


def poly_pow(f: dict, n: int) -> dict:
    out = poly_const(1)
    for _ in range(n):
        out = poly_mul(out, f)
    return out


def poly_eval(f: dict, x) -> Fraction:
    x = Fraction(x)
    return sum((c * x ** d for d, c in f.items()), Fraction(0))


def poly_divmod(f: dict, g: dict):
    if is_zero(g):
        raise ZeroDivisionError("polynomial division by zero")
    q: dict = {}
    r = dict(f)
    dg = degree(g)
    lg = g[dg]
    while not is_zero(r) and degree(r) >= dg:
        dr = degree(r)
        c = r[dr] / lg
        q[dr - dg] = c
        r = poly_sub(r, poly_mul({dr - dg: c}, g))
    return normalize(q), normalize(r)


def poly_gcd(f: dict, g: dict) -> dict:
    """Monic gcd over Q by the Euclidean algorithm."""
    a, b = dict(f), dict(g)
    while not is_zero(b):
        _, r = poly_divmod(a, b)
        a, b = b, r
    if is_zero(a):
        return a
    return poly_scale(a, 1 / a[degree(a)])


def poly_monic(f: dict) -> dict:
    if is_zero(f):
        return f
    return poly_scale(f, 1 / f[degree(f)])


def taylor_shift(f: dict, c) -> dict:
    """Coefficients of f(X + c): recentering at c, exactly.

    Write c = u/w in lowest terms, N = deg f, and D for the lcm of the
    denominators of f.  Then F(X) = D*w^N*f(X/w) has integer coefficients
    D*a_n*w^(N-n), and F(X + u) = D*w^N*f(X/w + c), so the coefficient b_k
    of f(X + c) is e_k / (D*w^(N-k)) with e_k that of F(X + u).  The shift
    by the integer u is Horner's scheme on integers (von zur Gathen and
    Gerhard, "Fast algorithms for Taylor shifts", ISSAC 1997): no binomials,
    no powers, and no rational arithmetic until the N+1 output coefficients.
    """
    if not f:
        return {}
    c = Fraction(c)
    u, w = c.numerator, c.denominator
    d = 1
    for a in f.values():
        d = lcm(d, a.denominator)
    n = max(f)
    e = [0] * (n + 1)
    scale = d                      # D*w^(N-k), for k = N down to 0
    for k in range(n, -1, -1):
        a = f.get(k)
        if a:
            e[k] = a.numerator * (scale // a.denominator)
        scale *= w
    if u:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                e[j] += u * e[j + 1]
    out = {}
    for k, ek in enumerate(e):     # scale runs back from D*w^N to D
        scale //= w
        if ek:
            out[k] = Fraction(ek, scale)
    return out


def padic_exponent(x: Fraction, p: int) -> int:
    """Exponent of p in the rational x; x must be nonzero."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("p-adic exponent of zero")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_abs(x, p: int) -> Fraction:
    """|x|_p as an exact rational; 0 for x = 0."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    v = padic_exponent(x, p)
    return Fraction(1, p ** v) if v >= 0 else Fraction(p ** -v)
