"""Exact univariate polynomials over the rationals, and their text form.

A :class:`Poly` is stored in the normal form of Gauss's lemma: a rational
content times a primitive integer polynomial, whose coefficients have gcd 1
and a positive leading entry.  Equal polynomials are equal values with
equal hashes, a product of two primitive polynomials is primitive, so
multiplication needs no gcd, and the Gauss norm of f is |content|_p.
Tate series, rational functions, Laurent coefficients and ideal generators
all hold this one type.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

from .errors import ParseError, TooLarge, ZeroValue, check_work

# largest degree, and exponent, the text parser builds: storage is dense
MAX_DEGREE = 10000


@dataclass(frozen=True, slots=True)
class Poly:
    """content * (coeffs[0] + coeffs[1]*T + ...), coeffs primitive integers
    in increasing degree; zero is content 0 with no coefficients.

    Read as a mapping it is degree -> nonzero Fraction coefficient:
    ``items()`` in increasing degree, iteration over the degrees, ``len``
    the number of terms and ``f[d]`` any coefficient (0 above the degree).
    """

    content: Fraction
    coeffs: tuple = ()

    def items(self) -> list:
        c = self.content
        return [(d, c * e) for d, e in enumerate(self.coeffs) if e]

    def __iter__(self):
        return (d for d, e in enumerate(self.coeffs) if e)

    def __len__(self) -> int:
        return sum(1 for e in self.coeffs if e)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, d: int) -> Fraction:
        if 0 <= d < len(self.coeffs):
            return self.content * self.coeffs[d]
        return Fraction(0)


ZERO = Poly(Fraction(0))


def _normal(content, ints) -> Poly:
    """content * ints (integers in increasing degree) in normal form."""
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    if not n or not content:
        return ZERO
    g = gcd(*ints[:n])
    if ints[n - 1] < 0:
        g = -g
    # tuple() of a list, not of a generator: CPython grows a generator's
    # tuple by resizing, which bypasses the tuple free lists on allocation
    # but refills them on release, so they would fill to 2000 per length
    coeffs = tuple(ints[:n] if g == 1 else [e // g for e in ints[:n]])
    return Poly(Fraction(content) * g, coeffs)


def poly(coeffs) -> Poly:
    """The polynomial with the given {degree: rational} coefficients."""
    terms = [(d, Fraction(c)) for d, c in coeffs.items() if c]
    if not terms:
        return ZERO
    den = lcm(*(c.denominator for _, c in terms))
    ints = [0] * (max(d for d, _ in terms) + 1)
    for d, c in terms:
        ints[d] = c.numerator * (den // c.denominator)
    return _normal(Fraction(1, den), ints)


def poly_const(c) -> Poly:
    return _normal(c, [1])


def poly_x(power: int = 1) -> Poly:
    return Poly(Fraction(1), (0,) * power + (1,))


def degree(f: Poly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(f.coeffs) - 1


def poly_add(f: Poly, g: Poly) -> Poly:
    if not f:
        return g
    if not g:
        return f
    # over the common content gcd(numerators)/lcm(denominators) both
    # summands have integer coefficients
    cf, cg = f.content, g.content
    num = gcd(cf.numerator, cg.numerator)
    den = lcm(cf.denominator, cg.denominator)
    a = cf.numerator // num * (den // cf.denominator)
    b = cg.numerator // num * (den // cg.denominator)
    out = [a * x for x in f.coeffs] + [0] * (len(g.coeffs) - len(f.coeffs))
    for i, y in enumerate(g.coeffs):
        out[i] += b * y
    return _normal(Fraction(num, den), out)


def poly_sum(terms) -> Poly:
    """The sum of the polynomials, with one normalisation at the end, and
    each summand's nonzero coefficients found by one C-speed scan.  A
    chain of poly_add would renormalise the growing sum once per term;
    poly_add stays the faster form for two small summands, as in the
    Laurent arithmetic."""
    terms = [f for f in terms if f]
    if len(terms) < 2:
        return terms[0] if terms else ZERO
    # over the common content gcd(numerators)/lcm(denominators) every
    # summand has integer coefficients
    num = gcd(*(f.content.numerator for f in terms))
    den = lcm(*(f.content.denominator for f in terms))
    out = [0] * max(len(f.coeffs) for f in terms)
    for f in terms:
        c, coeffs = f.content, f.coeffs
        a = c.numerator // num * (den // c.denominator)
        for i in compress(range(len(coeffs)), coeffs):
            out[i] += a * coeffs[i]
    return _normal(Fraction(num, den), out)


def poly_neg(f: Poly) -> Poly:
    return Poly(-f.content, f.coeffs)


def poly_sub(f: Poly, g: Poly) -> Poly:
    return poly_add(f, poly_neg(g))


def _convolve(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple(out)


def poly_mul(f: Poly, g: Poly) -> Poly:
    """Contents multiply and primitive parts convolve: by Gauss's lemma the
    product of primitive polynomials is primitive, so there is no gcd."""
    if not f or not g:
        return ZERO
    return Poly(f.content * g.content, _convolve(f.coeffs, g.coeffs))


def poly_pow(f: Poly, n: int) -> Poly:
    """f^n by repeated squaring of the primitive part; a monomial c*T^d,
    whose primitive part is T^d, has the closed form c^n * T^(dn)."""
    if f.coeffs.count(0) == len(f.coeffs) - 1:
        return Poly(f.content ** n, (0,) * ((len(f.coeffs) - 1) * n) + (1,))
    result, base, k = (1,), f.coeffs, n
    while k:
        if k & 1:
            result = _convolve(result, base)
        k >>= 1
        if k:
            base = _convolve(base, base)
    return Poly(f.content ** n, result)


def poly_eval(f, x) -> Fraction:
    """f(x) exactly, for a Poly or a {degree: rational} mapping f.

    With x = u/w, w^N * F(x) = sum e_k u^k w^(N-k) is an integer Horner
    scheme on the primitive part F; one Fraction is built at the end."""
    if not isinstance(f, Poly):
        f = poly(f)
    if not f:
        return Fraction(0)
    x = Fraction(x)
    u, w = x.numerator, x.denominator
    acc, wpow = 0, 1
    for e in reversed(f.coeffs):
        acc = acc * u + e * wpow
        wpow *= w
    return f.content * Fraction(acc, wpow // w)


def poly_divmod(f: Poly, g: Poly):
    """Quotient and remainder over Q, from the pseudo-division
    s*F = Q*G + R of the primitive parts over Z, where s is a power of the
    leading coefficient of G (1 when every step divides exactly)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    R, G = list(f.coeffs), g.coeffs
    dg, lead = len(G) - 1, G[-1]
    Q = [0] * max(len(R) - dg, 0)
    s = 1
    for k in range(len(Q) - 1, -1, -1):
        c = R[k + dg]
        if c % lead:
            R, Q, s = [lead * x for x in R], [lead * x for x in Q], s * lead
        else:
            c //= lead
        Q[k] += c
        for i, y in enumerate(G, k):
            R[i] -= c * y
    return (_normal(f.content / (s * g.content), Q),
            _normal(f.content / s, R[:dg]))


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q by Euclid's algorithm; every remainder is stored
    primitive, so the integers stay small."""
    while g:
        f, g = g, poly_divmod(f, g)[1]
    return poly_monic(f)


def poly_monic(f: Poly) -> Poly:
    return Poly(Fraction(1, f.coeffs[-1]), f.coeffs) if f else f


def taylor_shift(f: Poly, c) -> Poly:
    """f(X + c): recentering at c, exactly.

    Write c = u/w in lowest terms, N = deg f and f = content * E.  Then
    F(Y) = w^N * E(Y/w) has integer coefficients E_n*w^(N-n), and
    w^N * E(X + c) = F(wX + u), so with e_k the coefficients of F(Y + u)
    f(X + c) = content/w^N * sum e_k w^k X^k.  The shift by the integer u
    is Horner's scheme on integers (von zur Gathen and Gerhard, "Fast
    algorithms for Taylor shifts", ISSAC 1997): no binomials and no
    rational arithmetic.  A shift priced above MAX_WORK, 20 (12 to 22 ns) per
    unit of N^2 (1 + bits * words / 1024), bits those of the final integers
    and words the 64-bit words of u, raises TooLarge first; c = 0 is no shift.
    The powers of w are running products.
    """
    if type(c) is not Fraction and type(c) is not int:
        c = Fraction(c)
    u, w = c.numerator, c.denominator
    if not f or not u:
        return f
    n, ub, coeffs = len(f.coeffs) - 1, u.bit_length(), f.coeffs
    bits = (max(max(coeffs), -min(coeffs)).bit_length()
            + n * (ub + w.bit_length()))
    check_work(-(-20 * n * n * (1024 + bits * (1 + ub // 64)) // 1024),
               f"polys: Taylor shift of degree {n} by {c}")
    e, wk = list(coeffs), 1
    for k in range(n - 1, -1, -1):      # F = sum E_k w^(N-k) Y^k
        wk *= w
        e[k] *= wk
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            e[j] += u * e[j + 1]
    wk = 1
    for k in range(1, n + 1):
        wk *= w
        e[k] *= wk
    return _normal(f.content / wk, e)


def padic_exponent(x, p: int) -> int:
    """Exponent of p in the nonzero rational (or integer) x, in O(log v)
    divisions: by p twice, by p^2, p^4, ... while they divide, back down."""
    num, den = x.numerator, x.denominator
    if not num:
        raise ZeroValue("p-adic exponent of zero")
    v = 0 if den % p else -padic_exponent(den, p)
    if num % p:    # one small division in most calls
        return v
    num //= p
    if num % p:    # and in most of the rest
        return v + 1
    num, q, powers = num // p, p * p, [p]
    while True:
        quo, r = divmod(num, q)
        if r:
            break
        num = quo
        powers.append(q)
        q *= q
    v += 1 << len(powers)    # q = p^(2^k) failed, k = len(powers): fewer
    while powers:            # than 2^k factors p are left, all in r < q
        q = powers.pop()
        if not r % q:
            r //= q
            v += 1 << len(powers)
    return v


def padic_abs(x, p: int) -> Fraction:
    """|x|_p as an exact rational; 0 for x = 0."""
    if not x:
        return Fraction(0)
    v = padic_exponent(x, p)
    return Fraction(1, p ** v) if v >= 0 else Fraction(p ** -v)


# --- text form -----------------------------------------------------------

def _bits(f: Poly, terms: int = 1) -> int:
    """ceil(log2) of a bound on any sum of `terms` coefficients of f."""
    c = f.content
    top = max(map(abs, f.coeffs), default=1) * abs(c.numerator) * c.denominator
    return (terms * top - 1).bit_length()


def _check_size(deg: int, bits: int, products: int, what: str):
    """Refuse, before it is built, an expansion above MAX_DEGREE or priced
    above MAX_WORK: 500 per bit of its size, (deg + 1) * bits (the slowest
    shape, a dense 11-term polynomial's 120th power squared, takes 1 s),
    or 100 per product of its largest convolution (65 to 85 ns each)."""
    if deg > MAX_DEGREE:
        raise TooLarge(f"{what} of degree {deg} exceeds {MAX_DEGREE}")
    check_work(max(500 * (deg + 1) * bits, 100 * products),
               f"polys: {what} of degree {deg} with {bits}-bit coefficients")


class _Parser:
    """Recursive-descent parser for + - * ^ with parentheses, rational
    literals and the variable T.  Degrees and exponents above MAX_DEGREE
    and expansions priced above MAX_WORK are refused before expanding."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0

    def error(self, msg):
        raise ParseError(f"{msg} at position {self.pos} in {self.text!r}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos:self.pos + 1]

    def take(self, chars: str) -> str:
        """The next character if it is one of chars, consumed; else ""."""
        c = self.peek()
        if c and c in chars:
            self.pos += 1
            return c
        return ""

    def expr(self) -> Poly:
        terms = [poly_neg(self.term()) if self.take("-") else self.term()]
        while op := self.take("+-"):
            terms.append(self.term() if op == "+" else poly_neg(self.term()))
        return poly_sum(terms)

    def term(self) -> Poly:
        node = self.factor()
        while self.take("*"):
            rhs = self.factor()
            # a coefficient of the product sums at most min(terms) products
            terms = min(len(node), len(rhs))
            _check_size(degree(node) + degree(rhs),
                        _bits(node, terms) + _bits(rhs),
                        len(node) * (degree(rhs) + 1), "product")
            node = poly_mul(node, rhs)
        return node

    def factor(self) -> Poly:
        node = self.atom()
        while self.take("^"):
            exp = self.integer()
            if exp < 0:
                self.error("negative exponent")
            if exp > MAX_DEGREE:
                raise TooLarge(f"exponent {exp} exceeds {MAX_DEGREE}")
            # the coefficients of f^n are at most l1(f)^n <= (terms * max)^n;
            # unless f is a monomial, the largest convolution is about
            # f^k * f^(exp-k), k = exp // 2, f^k having at most
            # min(terms^k, deg * k + 1) terms
            d, k = degree(node), exp // 2
            work = (min(len(node) ** k, d * k + 1) * (d * (exp - k) + 1)
                    if len(node) > 1 else 0)
            _check_size(d * exp, exp * _bits(node, len(node)), work,
                        f"power {exp}")
            node = poly_pow(node, exp)
        return node

    def atom(self) -> Poly:
        if self.take("("):
            node = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return node
        if self.take("T"):
            return poly_x()
        if not "0" <= self.peek() <= "9":
            self.error(f"unexpected token {self.peek()!r}")
        num = self.integer()
        if not self.take("/"):
            return poly_const(num)
        den = self.integer()
        if den == 0:
            self.error("division by zero")
        return poly_const(Fraction(num, den))

    def integer(self) -> int:
        sign = -1 if self.take("-") else 1
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        return sign * parse_integer(self.text[start:self.pos])


def parse_poly(text: str) -> Poly:
    parser = _Parser(text)
    result = parser.expr()
    if parser.peek():
        parser.error(f"unexpected token {parser.peek()!r}")
    return result


def parse_integer(text: str) -> int:
    """The int of a literal [-]digits in ASCII, the one form of an integer
    in the text literals, space around it allowed.  Anything else raises
    ParseError, more than sys.get_int_max_str_digits() digits TooLarge,
    naming the literal."""
    digits = text.strip()
    if digits.isascii() and digits.removeprefix("-").isdigit():
        try:
            return int(digits)
        except ValueError:  # above sys.get_int_max_str_digits() digits
            raise TooLarge(f"integer {text[:40]!r} has more than "
                           f"{sys.get_int_max_str_digits()} digits")
    raise ParseError(f"bad integer {text[:40]!r}: expected [-]digits")


def parse_rational(text: str):
    """The rational of a literal [-]digits[/digits], the one form of a
    rational in the text literals, space around it allowed: an int without
    a denominator, else a Fraction.  Decimals, exponents (whose expansion
    is unbounded) and zero denominators raise ParseError, a part longer
    than sys.get_int_max_str_digits() digits TooLarge, naming the literal."""
    num, slash, den = text.strip().partition("/")
    try:
        if text.isascii() and num.removeprefix("-").isdigit() and (
                den.isdigit() or not slash):
            return Fraction(int(num), int(den)) if slash else int(num)
    except ValueError:  # above sys.get_int_max_str_digits() digits
        raise TooLarge(f"rational {text[:40]!r} has more than "
                       f"{sys.get_int_max_str_digits()} digits")
    except ZeroDivisionError:
        pass
    raise ParseError(f"bad rational {text[:40]!r}: expected [-]digits[/digits]"
                     f" with a nonzero denominator")


def render_poly(f: Poly) -> str:
    """Canonical rendering: descending degree, exact fractions.  A
    coefficient longer than sys.get_int_max_str_digits() digits raises
    TooLarge."""
    if not f:
        return "0"
    parts = []
    try:
        for d, c in reversed(f.items()):
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                t = "T" if d == 1 else f"T^{d}"
                body = t if mag == 1 else f"{mag}*{t}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
    except ValueError:  # above the int-to-text digit limit
        raise TooLarge(f"coefficient of T^{d} has more than "
                       f"{sys.get_int_max_str_digits()} digits to render")
    return " ".join(parts)
