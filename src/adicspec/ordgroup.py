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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    MalformedElement,
    MismatchedGroups,
    NotConvexSubgroupOfValueGroup,
    ParseError,
)

LT, EQ, GT = -1, 0, 1


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


def group_pow(a: GroupElement, n: int) -> GroupElement:
    k = a.group.kind
    if k is GroupKind.TRIVIAL:
        return a
    if k is GroupKind.LEX_RATIONAL:
        return GroupElement(a.group, tuple(n * x for x in a.payload))
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
    r = a.group.r
    qa, ka = a.payload
    qb, kb = b.payload
    real = _cmp(qa * r ** ka, qb * r ** kb)
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


class SubgroupKind(Enum):
    TRIVIAL_SUB = "trivial-sub"
    FULL = "full"
    LEX_TAIL = "lex-tail"
    RADIUS_REAL = "radius-real"


@dataclass(frozen=True)
class ConvexSubgroup:
    """Convex subgroup in canonical closed form.

    For lex groups every member of the chain is a LEX_TAIL(r) with
    r in {1, ..., n+1}; r = n+1 is the trivial subgroup and r = 1 the full
    group.  For the other kinds the canonical forms are TRIVIAL_SUB,
    RADIUS_REAL and FULL.

    RADIUS_REAL is the height-1 convex subgroup of a radius group: the
    elements q*g^k whose folded real part q*r^k equals 1, an infinite
    cyclic group generated by g/r.  (The real elements {(q, 0)} are not
    convex under the real-part-first order; they embed instead as the
    quotient by RADIUS_REAL.)
    """

    group: Group
    kind: SubgroupKind
    r: int = 0


def trivial_subgroup(G: Group) -> ConvexSubgroup:
    if G.kind is GroupKind.LEX_RATIONAL:
        return ConvexSubgroup(G, SubgroupKind.LEX_TAIL, r=G.n + 1)
    return ConvexSubgroup(G, SubgroupKind.TRIVIAL_SUB)


def full_subgroup(G: Group) -> ConvexSubgroup:
    if G.kind is GroupKind.LEX_RATIONAL:
        return ConvexSubgroup(G, SubgroupKind.LEX_TAIL, r=1)
    if G.kind is GroupKind.TRIVIAL:
        return ConvexSubgroup(G, SubgroupKind.TRIVIAL_SUB)
    return ConvexSubgroup(G, SubgroupKind.FULL)


def lex_tail(G: Group, r: int) -> ConvexSubgroup:
    if G.kind is not GroupKind.LEX_RATIONAL or not (1 <= r <= G.n + 1):
        raise NotConvexSubgroupOfValueGroup(f"LexTail({r}) of {G}")
    return ConvexSubgroup(G, SubgroupKind.LEX_TAIL, r=r)


def radius_real_subgroup(G: Group) -> ConvexSubgroup:
    if G.kind not in (GroupKind.RADIUS_BELOW, GroupKind.RADIUS_ABOVE):
        raise NotConvexSubgroupOfValueGroup(f"RadiusReal of {G}")
    return ConvexSubgroup(G, SubgroupKind.RADIUS_REAL)


def is_trivial_subgroup(H: ConvexSubgroup) -> bool:
    if H.kind is SubgroupKind.TRIVIAL_SUB:
        return True
    return H.kind is SubgroupKind.LEX_TAIL and H.r == H.group.n + 1


def is_full_subgroup(H: ConvexSubgroup) -> bool:
    if H.kind is SubgroupKind.FULL:
        return True
    if H.kind is SubgroupKind.LEX_TAIL and H.r == 1:
        return True
    return H.group.kind is GroupKind.TRIVIAL and H.kind is SubgroupKind.TRIVIAL_SUB


def list_convex_subgroups(G: Group):
    """The full chain of convex subgroups, ordered by inclusion."""
    k = G.kind
    if k is GroupKind.TRIVIAL:
        return [trivial_subgroup(G)]
    if k is GroupKind.LEX_RATIONAL:
        return [lex_tail(G, r) for r in range(G.n + 1, 0, -1)]
    if k is GroupKind.POS_RATIONAL:
        return [trivial_subgroup(G), full_subgroup(G)]
    return [trivial_subgroup(G), radius_real_subgroup(G), full_subgroup(G)]


def subgroup_chain_index(H: ConvexSubgroup) -> int:
    """Position of H in the inclusion chain of its group (0 = trivial)."""
    chain = list_convex_subgroups(H.group)
    try:
        return chain.index(H)
    except ValueError:
        raise NotConvexSubgroupOfValueGroup(str(H))


def subgroup_contains_subgroup(H1: ConvexSubgroup, H2: ConvexSubgroup) -> bool:
    if H1.group != H2.group:
        raise MismatchedGroups(f"{H1.group} vs {H2.group}")
    return subgroup_chain_index(H1) >= subgroup_chain_index(H2)


def subgroup_contains(H: ConvexSubgroup, g: GroupElement) -> bool:
    if H.group != g.group:
        raise MismatchedGroups(f"{H.group} vs {g.group}")
    if is_full_subgroup(H):
        return True
    if is_trivial_subgroup(H):
        return is_unit(g)
    if H.kind is SubgroupKind.LEX_TAIL:
        return all(e == 0 for e in g.payload[: H.r - 1])
    # RADIUS_REAL: folded real part equal to 1
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
        return lex_tail(G, j + 1)
    if k is GroupKind.POS_RATIONAL:
        return full_subgroup(G)
    # radius groups: an element with folded real part != 1 sandwiches, via
    # its powers, every other element of the group; real part 1 generates
    # the infinitesimal cyclic subgroup.
    q, e = g.payload
    if q * G.r ** e != 1:
        return full_subgroup(G)
    return radius_real_subgroup(G)


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


def subgroup_height(H: ConvexSubgroup) -> int:
    """Height of H viewed as a totally ordered group in its own right."""
    if is_trivial_subgroup(H):
        return 0
    if is_full_subgroup(H):
        return height(H.group)
    if H.kind is SubgroupKind.LEX_TAIL:
        return H.group.n - H.r + 1
    return 1  # RADIUS_REAL is archimedean


def subgroup_as_group(H: ConvexSubgroup) -> Group:
    """H as a standalone group descriptor."""
    if is_trivial_subgroup(H):
        return trivial_group()
    if is_full_subgroup(H):
        return H.group
    if H.kind is SubgroupKind.LEX_TAIL:
        return lex_group(H.group.n - H.r + 1)
    return lex_group(1)  # RADIUS_REAL is infinite cyclic


def element_into_subgroup(g: GroupElement, H: ConvexSubgroup) -> GroupElement:
    """Rewrite a member of H as an element of subgroup_as_group(H)."""
    if not subgroup_contains(H, g):
        raise NotConvexSubgroupOfValueGroup(f"{g} not in {H}")
    target = subgroup_as_group(H)
    if target.kind is GroupKind.TRIVIAL:
        return unit(target)
    if is_full_subgroup(H):
        return g
    if H.kind is SubgroupKind.LEX_TAIL:
        return GroupElement(target, g.payload[H.r - 1:])
    # RADIUS_REAL: generator g/r is < 1 in RadiusBelow and > 1 in
    # RadiusAbove; pick the exponent sign preserving the order.
    k = g.payload[1]
    if H.group.kind is GroupKind.RADIUS_BELOW:
        return GroupElement(target, (Fraction(-k),))
    return GroupElement(target, (Fraction(k),))


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
    if H.kind is SubgroupKind.LEX_TAIL:
        Q = lex_group(H.r - 1)
        return Q, lambda g: GroupElement(Q, g.payload[: H.r - 1])
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
    k = a.group.kind
    if k is GroupKind.TRIVIAL:
        return "1"
    if k is GroupKind.LEX_RATIONAL:
        return "(" + ",".join(str(e) for e in a.payload) + ")"
    if k is GroupKind.POS_RATIONAL:
        return str(a.payload[0])
    mark = "<" if k is GroupKind.RADIUS_BELOW else ">"
    return f"{a.payload[0]}*g^{a.payload[1]}@{a.group.r}{mark}"


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
            return lex_element(group, [Fraction(p) for p in parts])
        if k is GroupKind.POS_RATIONAL:
            return pos_element(Fraction(text))
        body, radius = text.rsplit("@", 1)
        mark = radius[-1]
        expected = "<" if k is GroupKind.RADIUS_BELOW else ">"
        if mark != expected or Fraction(radius[:-1]) != group.r:
            raise bad
        q, kpart = body.split("*g^")
        return radius_element(group, Fraction(q), int(kpart))
    except (ValueError, ZeroDivisionError, MalformedElement) as exc:
        raise bad from exc


def render_subgroup(H: ConvexSubgroup) -> str:
    if is_trivial_subgroup(H):
        return "1"
    if is_full_subgroup(H):
        return "full"
    if H.kind is SubgroupKind.LEX_TAIL:
        return f"tail({H.r})"
    return "real"
