"""Command-line frontend.

Subcommands: spv, eval, classify, member, specializes, cover,
cech-laurent, group, retract.  All numerics are rendered as exact
fractions.  Exit codes: 0 success, 1 domain error (with a stable error
code), 2 usage or parse error.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import wraps

import click

from . import __version__, cech, disc, ordgroup, spectral, tate, valuation
from .errors import AdicError, MalformedElement, NotPrime, ParseError
from .polys import parse_integer, parse_rational
from .valuation import RING_Q, RING_Z, BaseRing, finite_field


def _resolve_ring(name: str) -> BaseRing:
    name = name.strip()
    if name == "Z":
        return RING_Z
    if name == "Q":
        return RING_Q
    if name.startswith("F"):
        try:
            return finite_field(parse_integer(name[1:]))
        except (ParseError, NotPrime) as exc:
            raise ParseError(f"bad ring {name!r}") from exc
    raise ParseError(f"unknown ring {name!r} (expected Z, Q or F<p>)")


def _render_value(val) -> str:
    if val.is_zero():
        return "0"
    return ordgroup.render_element(val.elt)


# click.echo() with no file caches a wrapper per sys.stdout/sys.stderr object
# and keeps it alive, so each in-process run (CliRunner) would leave its
# capture buffers behind; an explicit uncached stream leaves nothing.  The
# --help option click adds echoes with no file, so its callback is replaced,
# and --version is an option of our own for the same reason.

def _show_help(ctx: click.Context, param, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color,
                   file=click.get_text_stream("stdout"))
        ctx.exit()


def _show_version(ctx: click.Context, param, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        click.echo(f"{ctx.find_root().info_name}, version {__version__}",
                   file=click.get_text_stream("stdout"))
        ctx.exit()


class _Command(click.Command):
    def get_help_option(self, ctx):
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Group(_Command, click.Group):
    command_class = _Command


def _emit(fmt: str, text: str, structured) -> None:
    if fmt == "structured":
        text = json.dumps(structured, indent=2, sort_keys=True)
    click.echo(text, file=click.get_text_stream("stdout"))


def _domain_errors(f):
    @wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except AdicError as exc:
            click.echo(f"error[{exc.code}]: {exc}",
                       file=click.get_text_stream("stderr"))
            sys.exit(2 if isinstance(exc, ParseError) else 1)
    return wrapper


format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "structured"]),
    default="text", help="Output format.")
prime_option = click.option(
    "-p", "--prime", type=int, default=2, show_default=True,
    help="The prime p.")


def _check_prime(p: int) -> int:
    if not tate.is_prime(p):
        raise click.UsageError(f"-p/--prime: {p} is not prime")
    return p


@click.group(cls=_Group)
@click.option("--version", is_flag=True, expose_value=False, is_eager=True,
              callback=_show_version, help="Show the version and exit.")
def main() -> None:
    """Exact computations with valuations, disc points and covers."""


@main.command()
@click.option("--ring", "ring_name", default="Z", show_default=True,
              help="Base ring: Z, Q or F<p>.")
@click.option("--bound", type=int, default=10, show_default=True,
              help="List primes up to this bound.")
@format_option
@_domain_errors
def spv(ring_name: str, bound: int, fmt: str) -> None:
    """Enumerate the valuation spectrum of Z, Q or a finite field."""
    if bound < 0:
        raise ParseError(f"--bound must be non-negative, got {bound}")
    ring = _resolve_ring(ring_name)
    model = spectral.spv_enumerate(ring, bound)
    # (x, y) is in the order exactly when x lies in the closure of {y}
    closures = {label: [] for label in model.space.points}
    for x, y in model.space.order:
        closures[y].append(x)
    rows = []
    for label in model.space.points:
        v = model.valuations[label]
        rows.append({
            "point": label,
            "kind": v.kind.value,
            "support": valuation.render_ideal_descriptor(valuation.support(v)),
            "closure": sorted(closures[label]),
        })
    lines = [f"{len(rows)} points"]
    for row in rows:
        lines.append(f"{row['point']} | {row['kind']} | {row['support']} | "
                     f"{{{', '.join(row['closure'])}}}")
    lines.append("specializations (x lies in the closure of y):")
    for x, y in sorted(model.space.order):
        if x != y:
            lines.append(f"  {x} <- {y}")
    _emit(fmt, "\n".join(lines), {"ring": ring_name, "bound": bound,
                                  "points": rows})


@main.command("eval")
@click.option("--point", "point_text", required=True,
              help="Point literal, e.g. ball:0,1 or classical:1/2.")
@click.option("--poly", "poly_text", required=True,
              help="Polynomial in T, e.g. 5*T+1.")
@prime_option
@format_option
@_domain_errors
def eval_cmd(point_text: str, poly_text: str, prime: int, fmt: str) -> None:
    """Evaluate |f| at a point of the adic unit disc."""
    _check_prime(prime)
    x = disc.parse_point(point_text, prime)
    f = tate.parse_series(poly_text, prime)
    val = disc.eval_at(x, f)
    text = _render_value(val)
    _emit(fmt, text, {"point": disc.render_point(x),
                      "poly": tate.render_series(f), "value": text})


_SAMPLE_TREE_RADII = ("1", "1/2", "1/4")


@main.command()
@click.option("--point", "point_text", default=None,
              help="Point literal to classify.")
@click.option("--tree", is_flag=True,
              help="Print a static text tree of sampled points instead.")
@prime_option
@format_option
@_domain_errors
def classify(point_text: str | None, tree: bool, prime: int, fmt: str) -> None:
    """Classify a disc point by type (1, 2, 3 or 5)."""
    _check_prime(prime)
    if tree:
        lines = [f"gauss point  ball:0,1  (type 2)"]
        for c in ("0", "1"):
            lines.append(f"+- branch at center {c}")
            for r in _SAMPLE_TREE_RADII[1:]:
                x = disc.ball(prime, Fraction(c), Fraction(r))
                t = disc.classify(x).value
                lines.append(f"|  +- {disc.render_point(x)}  (type {t})")
            x = disc.classical(prime, Fraction(c))
            lines.append(f"|  +- {disc.render_point(x)}  (type 1)")
        _emit(fmt, "\n".join(lines), {"tree": lines})
        return
    if point_text is None:
        raise click.UsageError("--point is required unless --tree is given")
    x = disc.parse_point(point_text, prime)
    t = disc.classify(x).value
    _emit(fmt, f"type {t}", {"point": disc.render_point(x), "type": t})


@main.command()
@click.option("--point", "point_text", required=True, help="Point literal.")
@click.option("--subset", "subset_text", required=True,
              help="Rational subset literal R(t1,...;s).")
@prime_option
@format_option
@_domain_errors
def member(point_text: str, subset_text: str, prime: int, fmt: str) -> None:
    """Decide membership of a disc point in a rational subset."""
    _check_prime(prime)
    x = disc.parse_point(point_text, prime)
    R = disc.parse_rational_subset(subset_text, prime)
    ok = disc.in_rational_subset(x, R)
    _emit(fmt, "true" if ok else "false",
          {"point": disc.render_point(x),
           "subset": disc.render_rational_subset(R), "member": ok})


def _parse_point_or_valuation(text: str, ring: BaseRing, prime: int):
    head = text.split(":", 1)[0]
    if head in ("classical", "ball", "below", "above", "deadend", "type4"):
        return valuation.disc_point_valuation(disc.parse_point(text, prime))
    return valuation.parse_valuation(text, ring)


@main.command()
@click.argument("x_text", metavar="X")
@click.argument("y_text", metavar="Y")
@click.option("--ring", "ring_name", default="Z", show_default=True,
              help="Base ring for valuation literals.")
@prime_option
@format_option
@_domain_errors
def specializes(x_text: str, y_text: str, ring_name: str, prime: int,
                fmt: str) -> None:
    """Decide whether X lies in the closure of Y.

    X and Y are point literals (ball:0,1) or valuation literals
    (padic:5, trivial:0, trivial:5).
    """
    _check_prime(prime)
    ring = _resolve_ring(ring_name)
    v = _parse_point_or_valuation(x_text, ring, prime)
    w = _parse_point_or_valuation(y_text, ring, prime)
    ok = valuation.specializes(v, w)
    _emit(fmt, "true" if ok else "false",
          {"x": x_text, "y": y_text, "specializes": ok})


@main.command()
@click.argument("generators", nargs=-1, required=True, metavar="POLY...")
@click.option("--kind", type=click.Choice(["laurent", "rational"]),
              default="laurent", show_default=True)
@prime_option
@format_option
@_domain_errors
def cover(generators, kind: str, prime: int, fmt: str) -> None:
    """Build the Laurent or rational cover generated by the polynomials."""
    _check_prime(prime)
    gens = [tate.parse_series(g, prime) for g in generators]
    if kind == "laurent":
        if len(gens) != 1:
            raise click.UsageError("a Laurent cover takes exactly one generator")
        spec = disc.laurent_cover(gens[0])
    else:
        spec = disc.rational_cover(gens)
    members = [disc.render_rational_subset(m) for m in spec.members]
    lines = [f"{spec.kind.value} cover, {len(members)} members"]
    lines.extend(f"  {m}" for m in members)
    _emit(fmt, "\n".join(lines),
          {"kind": spec.kind.value,
           "generators": [tate.render_series(g) for g in gens],
           "members": members})


@main.command("cech-laurent")
@click.option("--f", "f_text", required=True, help="Generator polynomial.")
@click.option("-N", "truncation", type=int, default=20, show_default=True,
              help="Truncation degree of the polynomial window.")
@prime_option
@format_option
@_domain_errors
def cech_laurent(f_text: str, truncation: int, prime: int, fmt: str) -> None:
    """Check exactness of the Laurent-cover complex on a finite window."""
    _check_prime(prime)
    f = tate.parse_series(f_text, prime)
    report = cech.check_laurent_exactness(f, truncation)
    _emit(fmt, report.render_text(), report.as_dict())


def _parse_group(text: str) -> ordgroup.Group:
    text = text.strip()
    head, _, rest = text.partition(":")
    try:
        if head == "trivial":
            return ordgroup.trivial_group()
        if head == "lex":
            return ordgroup.lex_group(parse_integer(rest))
        if head == "posq":
            return ordgroup.pos_rational_group()
        if head == "below":
            return ordgroup.radius_below_group(parse_rational(rest))
        if head == "above":
            return ordgroup.radius_above_group(parse_rational(rest))
    except MalformedElement as exc:
        raise ParseError(f"bad group literal {text!r}") from exc
    raise ParseError(f"unknown group literal {text!r}")


@main.command()
@click.argument("op", type=click.Choice(
    ["mul", "inv", "pow", "cmp", "height", "subgroups"]))
@click.argument("operands", nargs=-1)
@click.option("--group", "group_text", required=True,
              help="Group literal: trivial, lex:<n>, posq, below:<r>, above:<r>.")
@format_option
@_domain_errors
def group(op: str, operands, group_text: str, fmt: str) -> None:
    """Exact arithmetic in a totally ordered value group."""
    G = _parse_group(group_text)

    def need(n: int):
        if len(operands) != n:
            raise click.UsageError(f"{op} takes {n} operand(s)")

    if op == "mul":
        need(2)
        a, b = (ordgroup.parse_element(G, t) for t in operands)
        text = ordgroup.render_element(ordgroup.group_mul(a, b))
    elif op == "inv":
        need(1)
        text = ordgroup.render_element(
            ordgroup.group_inv(ordgroup.parse_element(G, operands[0])))
    elif op == "pow":
        need(2)
        a = ordgroup.parse_element(G, operands[0])
        n = parse_integer(operands[1])
        text = ordgroup.render_element(ordgroup.group_pow(a, n))
    elif op == "cmp":
        need(2)
        a, b = (ordgroup.parse_element(G, t) for t in operands)
        text = {-1: "<", 0: "=", 1: ">"}[ordgroup.group_cmp(a, b)]
    elif op == "height":
        need(0)
        text = str(ordgroup.height(G))
    else:
        need(0)
        text = "\n".join(ordgroup.render_subgroup(H)
                         for H in ordgroup.list_convex_subgroups(G))
    _emit(fmt, text, {"group": group_text, "op": op,
                      "operands": list(operands), "result": text.split("\n")})


@main.command()
@click.option("--valuation", "val_text", required=True,
              help="Valuation literal (padic:5, trivial:0) or point literal.")
@click.option("--ideal", "ideal_text", required=True,
              help="Ideal of definition, e.g. (5) or (T).")
@click.option("--ring", "ring_name", default="Z", show_default=True)
@prime_option
@format_option
@_domain_errors
def retract(val_text: str, ideal_text: str, ring_name: str, prime: int,
            fmt: str) -> None:
    """Retraction of a valuation onto its continuous locus."""
    _check_prime(prime)
    v = _parse_point_or_valuation(val_text, _resolve_ring(ring_name), prime)
    I = valuation.parse_ideal(ideal_text, v.ring)
    r = valuation.retract(v, I)
    text = valuation.render_valuation(r)
    _emit(fmt, text, {"valuation": val_text, "ideal": ideal_text,
                      "retract": text})


if __name__ == "__main__":
    main()
