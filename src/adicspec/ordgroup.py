"""Totally ordered abelian value groups, in five exact closed forms.

Supported groups (multiplicative notation throughout):

* ``Trivial`` -- the one-element group.
* ``LexRational(n)`` -- Q^n with lexicographic order; elements are stored
  as additive exponent tuples, and a lexicographically larger tuple is a
  larger group element.
* ``PosRational`` -- positive rationals under multiplication, archimedean.
* ``RadiusBelow(r)`` -- R_{>0} x g^Z with r' < g < r for all r' < r; an
  element q*g^k is stored as the pair (q, k).
* ``RadiusAbove(r)`` -- same underlying group, but r' > g > r for all
  r' > r.

Comparisons in the radius groups fold g to r for the real part and break
ties on the g-exponent (larger exponent is smaller in RadiusBelow, larger
in RadiusAbove); this is the unique total order compatible with the
defining inequalities and is the normal form used everywhere.

A :class:`ConvexSubgroup` is named by its index in the chain of convex
subgroups, from the trivial subgroup (0) up to the full group (the height).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    MalformedElement,
    MismatchedGroups,
    NotConvexSubgroupOfValueGroup,
    ParseError,
    TooLarge,
)
from .polys import parse_integer, parse_rational

LT, EQ, GT = -1, 0, 1

# largest arity of a lexicographic group: its subgroup chain is printed
# one line per subgroup
MAX_LEX_ARITY = 10000
# largest estimated bit size of a power q^n that group_pow builds, and of
# the folded real part q*r^k of a parsed radius element, which every
# comparison builds; a decimal form stops at 4300 digits, about 14300 bits
MAX_ELEMENT_BITS = 100_000


class GroupKind(Enum):
    TRIVIAL = "trivial"
    LEX_RATIONAL = "lex"
    POS_RATIONAL = "posq"
    RADIUS_BELOW = "below"
    RADIUS_ABOVE = "above"


@dataclass(frozen=True)
class Group:
    """Descriptor of one of the five supported value groups."""

    kind: GroupKind
    n: int = 0
    r: Fraction | None = None


def trivial_group() -> Group:
    return Group(GroupKind.TRIVIAL)


def lex_group(n: int) -> Group:
    if n < 1:
        raise MalformedElement("LexRational arity must be >= 1")
    if n > MAX_LEX_ARITY:
        raise TooLarge(f"LexRational arity {n} exceeds {MAX_LEX_ARITY}")
    return Group(GroupKind.LEX_RATIONAL, n=n)


def pos_rational_group() -> Group:
    return Group(GroupKind.POS_RATIONAL)


def radius_below_group(r) -> Group:
    r = Fraction(r)
    if not (0 < r <= 1):
        raise MalformedElement("RadiusBelow radius must lie in (0, 1]")
    return Group(GroupKind.RADIUS_BELOW, r=r)


def radius_above_group(r) -> Group:
    r = Fraction(r)
    if not (0 < r < 1):
        raise MalformedElement("RadiusAbove radius must lie in (0, 1)")
    return Group(GroupKind.RADIUS_ABOVE, r=r)


@dataclass(frozen=True)
class GroupElement:
    """Element of a value group; the payload shape matches the group kind.

    Trivial: empty tuple.  LexRational(n): tuple of n exponents.
    PosRational: (q,).  Radius groups: (q, k) for q*g^k.
    """

    group: Group
    payload: tuple

    def __post_init__(self):
        k, pl = self.group.kind, self.payload
        if k is GroupKind.TRIVIAL:
            ok = pl == ()
        elif k is GroupKind.LEX_RATIONAL:
            ok = len(pl) == self.group.n
        elif k is GroupKind.POS_RATIONAL:
            ok = len(pl) == 1 and pl[0] > 0
        else:
            ok = len(pl) == 2 and pl[0] > 0 and isinstance(pl[1], int)
        if not ok:
            raise MalformedElement(f"payload {pl!r} does not fit the {k.value} group")


def unit(group: Group) -> GroupElement:
    k = group.kind
    if k is GroupKind.TRIVIAL:
        return GroupElement(group, ())
    if k is GroupKind.LEX_RATIONAL:
        return GroupElement(group, (Fraction(0),) * group.n)
    if k is GroupKind.POS_RATIONAL:
        return GroupElement(group, (Fraction(1),))
    return GroupElement(group, (Fraction(1), 0))


def lex_element(group: Group, exponents) -> GroupElement:
    return GroupElement(group, tuple(Fraction(e) for e in exponents))


def pos_element(q) -> GroupElement:
    return GroupElement(pos_rational_group(), (Fraction(q),))


def radius_element(group: Group, q, k: int) -> GroupElement:
    return GroupElement(group, (Fraction(q), int(k)))


def is_unit(a: GroupElement) -> bool:
    return a == unit(a.group)


def _require_same_group(a: GroupElement, b: GroupElement):
    if a.group != b.group:
        raise MismatchedGroups(f"{a.group} vs {b.group}")


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Componentwise product (exponent sums for lex payloads)."""
    _require_same_group(a, b)
    k = a.group.kind
    if k is GroupKind.TRIVIAL:
        return a
    if k is GroupKind.LEX_RATIONAL:
        return GroupElement(a.group, tuple(x + y for x, y in zip(a.payload, b.payload)))
    if k is GroupKind.POS_RATIONAL:
        return GroupElement(a.group, (a.payload[0] * b.payload[0],))
    return GroupElement(a.group, (a.payload[0] * b.payload[0], a.payload[1] + b.payload[1]))


def group_inv(a: GroupElement) -> GroupElement:
    k = a.group.kind
    if k is GroupKind.TRIVIAL:
        return a
    if k is GroupKind.LEX_RATIONAL:
        return GroupElement(a.group, tuple(-x for x in a.payload))
    if k is GroupKind.POS_RATIONAL:
        return GroupElement(a.group, (1 / a.payload[0],))
    return GroupElement(a.group, (1 / a.payload[0], -a.payload[1]))


def _check_power_bits(x: Fraction, n: int, what: str) -> None:
    """Refuse x^n, before it is built, when it has more than about
    MAX_ELEMENT_BITS bits (at least |n| * floor(log2 max(|num|, den)))."""
    if abs(n) * (max(abs(x.numerator), x.denominator).bit_length() - 1) \
            > MAX_ELEMENT_BITS:
        raise TooLarge(f"{what} ({x})^{n} exceeds {MAX_ELEMENT_BITS} bits")


def group_pow(a: GroupElement, n: int) -> GroupElement:
    """a^n; a power with more than about MAX_ELEMENT_BITS bits raises
    TooLarge before it is computed."""
    k = a.group.kind
    if k is GroupKind.TRIVIAL:
        return a
    if k is GroupKind.LEX_RATIONAL:
        return GroupElement(a.group, tuple(n * x for x in a.payload))
    _check_power_bits(a.payload[0], n, "power")
    if k is GroupKind.POS_RATIONAL:
        return GroupElement(a.group, (a.payload[0] ** n,))
    return GroupElement(a.group, (a.payload[0] ** n, n * a.payload[1]))


def _cmp(a, b):
    return (a > b) - (a < b)


def group_cmp(a: GroupElement, b: GroupElement) -> int:
    """Total order; returns -1, 0 or 1 (LT, EQ, GT)."""
    _require_same_group(a, b)
    k = a.group.kind
    if k is GroupKind.TRIVIAL:
        return EQ
    if k is GroupKind.LEX_RATIONAL:
        return _cmp(a.payload, b.payload)
    if k is GroupKind.POS_RATIONAL:
        return _cmp(a.payload[0], b.payload[0])
    qa, ka = a.payload
    qb, kb = b.payload
    # q_a r^d against q_b, d = k_a - k_b and r = s/t, in integers
    s, t, d = a.group.r.numerator, a.group.r.denominator, ka - kb
    if d < 0:
        s, t, d = t, s, -d
    real = _cmp(qa.numerator * qb.denominator * s ** d,
                qb.numerator * qa.denominator * t ** d)
    if real != 0:
        return real
    if ka == kb:
        return EQ
    # Tie on real parts: g is infinitesimally below r in RadiusBelow, so a
    # larger g-exponent makes the element smaller; dually for RadiusAbove.
    if k is GroupKind.RADIUS_BELOW:
        return LT if ka > kb else GT
    return GT if ka > kb else LT


def group_le(a: GroupElement, b: GroupElement) -> bool:
    return group_cmp(a, b) <= 0


def group_lt(a: GroupElement, b: GroupElement) -> bool:
    return group_cmp(a, b) < 0


def height(G: Group) -> int:
    """Number of proper nontrivial convex subgroup steps in the chain."""
    k = G.kind
    if k is GroupKind.TRIVIAL:
        return 0
    if k is GroupKind.LEX_RATIONAL:
        return G.n
    if k is GroupKind.POS_RATIONAL:
        return 1
    return 2


@dataclass(frozen=True)
class ConvexSubgroup:
    """Convex subgroup, named by its place in the chain of its group.

    The convex subgroups of G form a chain 1 = H_0 < H_1 < ... < H_h = G
    with h = height(G); ``index`` i names H_i, and H_i has height i.  In
    LexRational(n), H_i is the tail of the last i coordinates (printed
    ``tail(n+1-i)``).  In a radius group, H_1 is the infinitesimal
    subgroup: the elements q*g^k whose folded real part q*r^k equals 1, an
    infinite cyclic group generated by g/r.  (The real elements {(q, 0)}
    are not convex under the real-part-first order; they embed instead as
    the quotient by H_1.)
    """

    group: Group
    index: int

    def __post_init__(self):
        if not 0 <= self.index <= height(self.group):
            raise NotConvexSubgroupOfValueGroup(
                f"index {self.index} in the chain of {self.group}")


def trivial_subgroup(G: Group) -> ConvexSubgroup:
    return ConvexSubgroup(G, 0)


def full_subgroup(G: Group) -> ConvexSubgroup:
    return ConvexSubgroup(G, height(G))


def lex_tail(G: Group, r: int) -> ConvexSubgroup:
    if G.kind is not GroupKind.LEX_RATIONAL or not (1 <= r <= G.n + 1):
        raise NotConvexSubgroupOfValueGroup(f"LexTail({r}) of {G}")
    return ConvexSubgroup(G, G.n + 1 - r)


def radius_real_subgroup(G: Group) -> ConvexSubgroup:
    if G.kind not in (GroupKind.RADIUS_BELOW, GroupKind.RADIUS_ABOVE):
        raise NotConvexSubgroupOfValueGroup(f"RadiusReal of {G}")
    return ConvexSubgroup(G, 1)


def is_trivial_subgroup(H: ConvexSubgroup) -> bool:
    return H.index == 0


def is_full_subgroup(H: ConvexSubgroup) -> bool:
    return H.index == height(H.group)


def list_convex_subgroups(G: Group):
    """The full chain of convex subgroups, ordered by inclusion."""
    return [ConvexSubgroup(G, i) for i in range(height(G) + 1)]


def subgroup_contains_subgroup(H1: ConvexSubgroup, H2: ConvexSubgroup) -> bool:
    if H1.group != H2.group:
        raise MismatchedGroups(f"{H1.group} vs {H2.group}")
    return H1.index >= H2.index


def subgroup_contains(H: ConvexSubgroup, g: GroupElement) -> bool:
    if H.group != g.group:
        raise MismatchedGroups(f"{H.group} vs {g.group}")
    if is_full_subgroup(H):
        return True
    if is_trivial_subgroup(H):
        return is_unit(g)
    if H.group.kind is GroupKind.LEX_RATIONAL:
        return all(e == 0 for e in g.payload[: H.group.n - H.index])
    # the infinitesimal subgroup: folded real part equal to 1
    q, k = g.payload
    return q * H.group.r ** k == 1


def convex_subgroup_generated(g: GroupElement) -> ConvexSubgroup:
    """Smallest convex subgroup containing g, in closed form."""
    G = g.group
    if is_unit(g):
        return trivial_subgroup(G)
    k = G.kind
    if k is GroupKind.LEX_RATIONAL:
        j = next(i for i, e in enumerate(g.payload) if e != 0)
        return ConvexSubgroup(G, G.n - j)
    if k is GroupKind.POS_RATIONAL:
        return full_subgroup(G)
    # radius groups: an element with folded real part != 1 sandwiches, via
    # its powers, every other element of the group; real part 1 generates
    # the infinitesimal cyclic subgroup.
    q, e = g.payload
    if q * G.r ** e != 1:
        return full_subgroup(G)
    return ConvexSubgroup(G, 1)


def subgroup_height(H: ConvexSubgroup) -> int:
    """Height of H viewed as a totally ordered group in its own right."""
    return H.index


def subgroup_as_group(H: ConvexSubgroup) -> Group:
    """H as a standalone group; a proper nontrivial H is a lex tail or cyclic."""
    if is_trivial_subgroup(H):
        return trivial_group()
    if is_full_subgroup(H):
        return H.group
    return lex_group(H.index)


def quotient_by_convex(G: Group, H: ConvexSubgroup):
    """Quotient group with its induced order and the order-preserving
    projection, both in closed form.

    Returns a pair (descriptor, projection function).
    """
    if H.group != G:
        raise MismatchedGroups(f"{H.group} vs {G}")
    if is_trivial_subgroup(H):
        return G, lambda g: g
    if is_full_subgroup(H):
        T = trivial_group()
        return T, lambda g: unit(T)
    if G.kind is GroupKind.LEX_RATIONAL:
        m = G.n - H.index
        Q = lex_group(m)
        return Q, lambda g: GroupElement(Q, g.payload[:m])
    # radius group mod its infinitesimal subgroup: the folded real part
    # q*r^k is constant on each class and gives the quotient order.
    Q = pos_rational_group()
    r = G.r
    return Q, lambda g: GroupElement(Q, (g.payload[0] * r ** g.payload[1],))


def is_cofinal(g: GroupElement, H: ConvexSubgroup) -> bool:
    """True iff for every h in H some power g^n lies below h.

    Decided in closed form: g must be below the unit and the convex
    subgroup generated by g must contain H.
    """
    if g.group != H.group:
        raise MismatchedGroups(f"{g.group} vs {H.group}")
    if not group_lt(g, unit(g.group)):
        return False
    return subgroup_contains_subgroup(convex_subgroup_generated(g), H)


# --- text rendering / parsing (CLI interface) ------------------------------

def render_element(a: GroupElement) -> str:
    """The element's text form; a number longer than
    sys.get_int_max_str_digits() digits raises TooLarge."""
    k = a.group.kind
    try:
        if k is GroupKind.TRIVIAL:
            return "1"
        if k is GroupKind.LEX_RATIONAL:
            return "(" + ",".join(str(e) for e in a.payload) + ")"
        if k is GroupKind.POS_RATIONAL:
            return str(a.payload[0])
        mark = "<" if k is GroupKind.RADIUS_BELOW else ">"
        return f"{a.payload[0]}*g^{a.payload[1]}@{a.group.r}{mark}"
    except ValueError:  # above the int-to-text digit limit
        raise TooLarge(f"a {k.value} element has more than "
                       f"{sys.get_int_max_str_digits()} digits to render")


def parse_element(group: Group, text: str) -> GroupElement:
    text = text.strip()
    bad = ParseError(f"cannot parse group element {text!r}")
    try:
        k = group.kind
        if k is GroupKind.TRIVIAL:
            if text != "1":
                raise bad
            return unit(group)
        if k is GroupKind.LEX_RATIONAL:
            if not (text.startswith("(") and text.endswith(")")):
                raise bad
            parts = text[1:-1].split(",")
            return lex_element(group, [parse_rational(p) for p in parts])
        if k is GroupKind.POS_RATIONAL:
            return pos_element(parse_rational(text))
        body, radius = text.rsplit("@", 1)
        mark = radius[-1:]
        expected = "<" if k is GroupKind.RADIUS_BELOW else ">"
        if mark != expected or parse_rational(radius[:-1]) != group.r:
            raise bad
        q, kpart = body.split("*g^")
        kexp = parse_integer(kpart)
        # every comparison folds q*g^k to q*r^k
        _check_power_bits(group.r, kexp, "folded real part with")
        return radius_element(group, parse_rational(q), kexp)
    except (ValueError, MalformedElement) as exc:
        raise bad from exc


def render_subgroup(H: ConvexSubgroup) -> str:
    if is_trivial_subgroup(H):
        return "1"
    if is_full_subgroup(H):
        return "full"
    if H.group.kind is GroupKind.LEX_RATIONAL:
        return f"tail({H.group.n + 1 - H.index})"
    return "real"
