"""The four benchmark workloads, as seeded streams of rounds of operations.

Every workload is one closed-loop client: ``Workload.next_round()`` returns
the next list of ``Op``s, and the runner executes them one after another.
A round has a fixed composition (op kinds and size classes); the seed
chooses everything else (primes, centers, coefficients, which subsets,
which specializations).  A fixed composition keeps the figures of two
seeds comparable, and the runner stops only at round boundaries, so every
run measures the same mix.

Inputs are built by this module.  Where a library function is used to
build an input (``parse_series``, ``rational_subset``, ``spv_enumerate``
for the factorization model), its result is determined by the
mathematics, not by how the library consumes randomness, so the stream
for a seed stays the same when the library's internals change.

Each op is ``(kind, call, check)``: ``call()`` is the timed part and
touches the library; ``check(result)`` is untimed and returns
``(ok, text)`` where ``text`` is the op's output as it enters the results
digest.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


# ---------------------------------------------------------------------------
# shared helpers (benchmark-side arithmetic, independent of the library)
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(bound: int) -> list:
    sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 1)
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, bound + 1, i)))
    return [i for i in range(bound + 1) if sieve[i]]


def poly_text(coeffs: dict) -> str:
    """Render {degree: Fraction} in the library's parser syntax."""
    parts = []
    for d in sorted(coeffs, reverse=True):
        c = coeffs[d]
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            t = "T" if d == 1 else f"T^{d}"
            body = t if mag == 1 else f"{mag}*{t}"
        parts.append(f"-{body}" if c < 0 else f"+{body}" if parts else body)
    return "".join(parts) if parts else "0"


def linear_text(c: Fraction) -> str:
    """T - c in the library's parser syntax."""
    return f"T-{c}" if c >= 0 else f"T+{-c}"


class Deck:
    """Draws items in seeded shuffled passes, so every item comes up
    equally often over a run."""

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self.left = rng, list(items), []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


class Fresh:
    """Draws values that never repeat within one stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: dict = {}

    def take(self, tag: str, make):
        seen = self.seen.setdefault(tag, set())
        for _ in range(10000):
            value = make()
            if value not in seen:
                seen.add(value)
                return value
        raise RuntimeError(f"no fresh {tag} left")

    def prime(self, lo: int, hi: int) -> int:
        def make():
            n = self.rng.randrange(lo, hi) | 1
            while not is_prime(n):
                n += 2
            return n
        return self.take("prime", make)

    def center(self, p: int) -> Fraction:
        """A rational with |c|_p <= 1."""
        def make():
            den = self.rng.randrange(1, 200)
            while den % p == 0:
                den += 1
            return Fraction(self.rng.randrange(-999, 1000), den)
        return self.take("center", make)

    def poly(self, max_deg: int, min_deg: int = 1) -> str:
        """A polynomial with a nonzero constant term."""
        def make():
            deg = self.rng.randint(min_deg, max_deg)
            coeffs = {deg: Fraction(self.rng.choice((1, -1, 2, 3, -5)))}
            for d in range(deg):
                if self.rng.random() < 0.6:
                    c = Fraction(self.rng.randint(-40, 40),
                                 self.rng.choice((1, 1, 3, 7, 11)))
                    if c:
                        coeffs[d] = c
            if 0 not in coeffs:
                coeffs[0] = Fraction(self.rng.randint(1, 40))
            return poly_text(coeffs)
        return self.take("poly", make)


# ---------------------------------------------------------------------------
# cech: full vs alternating Cech cohomology of random presheaves
# ---------------------------------------------------------------------------

# (cover size n, universe size, total dimension over all subsets, ops per
# round).  The total dimension fixes the complex sizes, so it is the cost
# class: (2, 7) gives differentials up to 17 x 9, (3, 13) up to 113 x 43
# and (4, 14) up to 486 x 162.  Five mid-sized ops put the median inside
# one class; three of the largest per round put the tail well inside
# another.
CECH_ROUND = ((2, 3, 7, 3), (3, 3, 11, 1), (3, 3, 13, 5), (4, 2, 14, 3))


def _subsets(n: int):
    for size in range(1, n + 1):
        yield from (frozenset(c) for c in combinations(range(n), size))


def _unimodular_pair(rng: random.Random, d: int):
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    minv = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for col in range(d):
            m[i][col] += c * m[j][col]
        for row in range(d):
            minv[row][j] -= c * minv[row][i]
    return m, minv


def _matmul(a, b, inner: int):
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(len(a))]


def presheaf_text(rng: random.Random, n: int, universe: int, total: int) -> str:
    """A functorial presheaf in the ``parse_presheaf_text`` format: functions
    on random point sets, conjugated by random unimodular bases, drawn
    until the total dimension is ``total``."""
    for _ in range(100000):
        point_sets = [frozenset(q for q in range(universe) if rng.random() < 0.7)
                      for _ in range(n)]
        carriers = {S: sorted(frozenset.intersection(*(point_sets[i] for i in S)))
                    for S in _subsets(n)}
        if sum(len(c) for c in carriers.values()) == total:
            break
    else:
        raise RuntimeError(f"no presheaf with total dimension {total}")
    dims = {S: len(carriers[S]) for S in carriers}
    basis = {S: _unimodular_pair(rng, dims[S]) for S in carriers}

    def key(S):
        return (len(S), sorted(S))

    def show(S):
        return ",".join(str(i) for i in sorted(S))

    out = [f"cover {n}"]
    out += [f"dim {show(S)} {dims[S]}" for S in sorted(dims, key=key)]
    for S in sorted(dims, key=key):
        for t in range(n):
            if t in S:
                continue
            Sp = S | {t}
            proj = [[int(a == b) for b in carriers[S]] for a in carriers[Sp]]
            m = _matmul(basis[Sp][0], _matmul(proj, basis[S][1], dims[S]),
                        dims[Sp])
            out.append(f"res {show(S)} {show(Sp)}")
            out += [" ".join(str(x) for x in row) for row in m]
    return "\n".join(out) + "\n"


class CechWorkload:
    name = "cech"

    def __init__(self, seed: int):
        from adicspec import cech
        self.cech = cech
        self.rng = random.Random(f"cech:{seed}")

    def next_round(self) -> list:
        ops = []
        for n, universe, total, count in CECH_ROUND:
            for _ in range(count):
                text = presheaf_text(self.rng, n, universe, total)
                ops.append(self._op(f"n{n}d{total}", text))
        self.rng.shuffle(ops)
        return ops

    def _op(self, kind: str, text: str) -> Op:
        cech = self.cech

        def call():
            P = cech.parse_presheaf_text(text)
            return (cech.cohomology(cech.build_complex(P)),
                    cech.cohomology(cech.alternating_subcomplex(P)))

        def check(result):
            full, alt = result
            return full == alt, f"{full}|{alt}"

        return Op(kind, call, check)


# ---------------------------------------------------------------------------
# disc: membership in rational subsets and their intersections
# ---------------------------------------------------------------------------

DISC_PRIME = 2
# Degree tiers of the polynomial pool (degree 1 to 20).  Every pair has
# the same shape, R1 = R(high; low) and R2 = R(mid, constant; low), so
# rounds differ only in the seeded degrees and coefficients inside each
# tier, and the heaviest queries (on the high x mid products) come from
# every run in a similar number.
DISC_TIERS = {"low": (1, 2, 3, 4), "mid": (6, 8, 10), "high": (14, 17, 20)}
DISC_RADII = tuple(Fraction(r) for r in
                   ("1", "1/2", "1/4", "1/8", "3/4", "1/3", "2/3", "5/8"))
DISC_CENTER_DENOMINATORS = (1, 3, 5, 7, 9, 11, 13, 15)
DISC_QUERIES_PER_KIND = 6   # queries per point kind per subset pair


class DiscWorkload:
    name = "disc"

    def __init__(self, seed: int):
        from adicspec import disc, tate
        self.disc, self.tate = disc, tate
        self.rng = random.Random(f"disc:{seed}")
        # The pool and the points are the same for every seed; the seed
        # draws the subset pairs and the queried points.  Membership
        # decides how many evaluations a query makes (a failed bound ends
        # it), so a pool drawn per seed would give each seed its own cost.
        rng = random.Random("disc-pool")
        p = DISC_PRIME
        self.pool = {"const": [tate.parse_series(t, p) for t in ("2", "3")]}
        for tier, degrees in DISC_TIERS.items():
            self.pool[tier] = [tate.parse_series(poly_text({
                d: Fraction(rng.choice((-1, 1)) * (1 + (7 * d + deg) % 9),
                            (1, 1, 3, 1, 5)[d % 5] if d < deg else 1)
                for d in range(deg + 1)}), p) for deg in degrees]
        centers = sorted(Fraction(rng.choice((-1, 1)) * (2 * den + 1), den)
                         for den in DISC_CENTER_DENOMINATORS)
        self.points = {
            "classical": [disc.classical(p, c) for c in centers],
            "ball": [disc.ball(p, c, r) for c in centers for r in DISC_RADII],
            "below": [disc.type5_below(p, c, r) for c in centers for r in DISC_RADII],
            "above": [disc.type5_above(p, c, r) for c in centers
                      for r in DISC_RADII if r < 1],
        }

        self.pairs = Deck(self.rng, [(h, m) for h in self.pool["high"]
                                     for m in self.pool["mid"]])
        self.point_decks = {kind: Deck(self.rng, pts)
                            for kind, pts in self.points.items()}

    def _subset(self, nums: tuple, den_tier: str):
        while True:
            den = self.rng.choice(self.pool[den_tier])
            if self.tate.generates_unit_ideal(nums + (den,)):
                return self.disc.rational_subset(nums, den)

    def next_round(self) -> list:
        disc = self.disc
        high, mid = self.pairs.draw()
        R1 = self._subset((high,), "low")
        R2 = self._subset((mid, self.rng.choice(self.pool["const"])), "low")
        pair = {}

        def query(x, first):
            def call():
                if first:
                    pair["R12"] = disc.intersect_rational(R1, R2)
                return (disc.in_rational_subset(x, R1),
                        disc.in_rational_subset(x, R2),
                        disc.in_rational_subset(x, pair["R12"]))
            return call

        def check(result):
            in1, in2, in12 = result
            return in12 == (in1 and in2), f"{in1:d}{in2:d}{in12:d}"

        chosen = [(kind, deck.draw()) for kind, deck in self.point_decks.items()
                  for _ in range(DISC_QUERIES_PER_KIND)]
        self.rng.shuffle(chosen)
        return [Op(kind, query(x, i == 0), check)
                for i, (kind, x) in enumerate(chosen)]


# ---------------------------------------------------------------------------
# spv: valuation-spectrum calculus
# ---------------------------------------------------------------------------

SPV_ENUM = (("Z", 300, 400), ("Z", 1200, 1300), ("Q", 2500, 2700))
SPV_RETRACT_Z = 6
SPV_FACTOR_SHAPES = ("padic>triv_p", "triv0>padic", "triv0>triv_p")
SPV_FACTOR_PER_SHAPE = 3
SPV_SOBER_SIZES = (11, 12)


class SpvWorkload:
    name = "spv"

    def __init__(self, seed: int):
        from adicspec import disc, ordgroup, spectral, valuation
        self.disc, self.ordgroup = disc, ordgroup
        self.spectral, self.valuation = spectral, valuation
        self.rng = random.Random(f"spv:{seed}")
        self.fresh = Fresh(self.rng)
        self.model = spectral.spv_enumerate(valuation.RING_Z,
                                            self.rng.randint(40, 60))
        self.model_primes = sorted(int(lab[4:]) for lab in self.model.valuations
                                   if not lab.startswith("|.|_0"))

    def next_round(self) -> list:
        rng = self.rng
        ops = []
        for ring, lo, hi in SPV_ENUM:
            ops.append(self._enum(ring, lo, rng.randint(lo, hi)))
        for i in range(SPV_RETRACT_Z):
            ops.append(self._retract_z(i % 3))
        for kind in ("classical", "ball", "below", "above"):
            ops.append(self._retract_qt(kind))
        for shape in SPV_FACTOR_SHAPES:
            for _ in range(SPV_FACTOR_PER_SHAPE):
                ops.append(self._factor(shape))
        for n in SPV_SOBER_SIZES:
            ops.append(self._sober(n))
        rng.shuffle(ops)
        return ops

    def _enum(self, ring_name: str, lo: int, bound: int) -> Op:
        spectral, valuation = self.spectral, self.valuation
        ring = valuation.RING_Z if ring_name == "Z" else valuation.RING_Q

        def call():
            return spectral.spv_enumerate(ring, bound)

        def check(m):
            primes = primes_up_to(bound)
            expected = 1 + (2 if ring_name == "Z" else 1) * len(primes)
            ok = len(m.space.points) == expected
            for p in primes[:: max(1, len(primes) // 16)]:
                ok &= (f"|.|_{p}", "|.|_0") in m.space.order
                if ring_name == "Z":
                    ok &= (f"|.|_0{p}", f"|.|_{p}") in m.space.order
                    ok &= (f"|.|_{p}", f"|.|_0{p}") not in m.space.order
            return ok, f"{ring_name}:{bound}:{len(m.space.points)}:{len(m.space.order)}"

        return Op(f"enum{ring_name}{lo}", call, check)

    def _retract_z(self, shape: int) -> Op:
        V, ordgroup = self.valuation, self.ordgroup
        q = self.fresh.prime(3, 10000)
        r = self.fresh.prime(3, 10000)
        if shape == 0:
            v = V.padic_valuation(V.RING_Z, q)
        elif shape == 1:
            v = V.trivial_valuation(V.RING_Z, V.PrimeIdealDescriptor.prime(q))
        else:
            v = V.trivial_valuation(V.RING_Z, V.PrimeIdealDescriptor.zero())
        ideal = V.parse_ideal(self.rng.choice(("(0)", f"({q})", f"({r})",
                                               f"({q * r})")), V.RING_Z)

        def call():
            ret = V.retract(v, ideal)
            ok = V.equivalent(V.retract(ret, ideal), ret)
            member = (ordgroup.is_full_subgroup(V.c_gamma_I(v, ideal))
                      or ordgroup.height(V.value_group(v)) == 0)
            if member:
                ok = ok and V.equivalent(ret, v)
            return ok, ret

        def check(result):
            ok, ret = result
            return ok, V.render_valuation(ret)

        return Op(f"retractZ{shape}", call, check)

    def _retract_qt(self, kind: str) -> Op:
        V, disc = self.valuation, self.disc
        rng = self.rng
        c = Fraction(rng.randint(-30, 30), rng.choice((1, 3, 5, 7, 9)))
        r = Fraction(rng.randint(1, 7), 8) if kind != "above" else \
            Fraction(rng.randint(1, 7), 9)
        x = disc.classical(2, c) if kind == "classical" else \
            {"ball": disc.ball, "below": disc.type5_below,
             "above": disc.type5_above}[kind](2, c, r)
        v = V.disc_point_valuation(x)
        ideal = V.parse_ideal("(2)", V.RING_QT)

        def call():
            ret = V.retract(v, ideal)
            ok = V.equivalent(ret, v) and V.equivalent(V.retract(ret, ideal), ret)
            return ok, ret

        def check(result):
            ok, ret = result
            return ok, V.render_valuation(ret)

        return Op(f"retractQT-{kind}", call, check)

    def _factor(self, shape: str) -> Op:
        V, spectral, m = self.valuation, self.spectral, self.model
        p = self.rng.choice(self.model_primes)
        v_label, w_label = {"padic>triv_p": (f"|.|_{p}", f"|.|_0{p}"),
                            "triv0>padic": ("|.|_0", f"|.|_{p}"),
                            "triv0>triv_p": ("|.|_0", f"|.|_0{p}")}[shape]

        def call():
            rep = spectral.factor_specialization(m, v_label, w_label)
            mid = V.vertical_quotient(rep.v_prime, rep.H)
            out = V.horizontal_restrict(rep.v_prime, rep.L)
            ok = (V.equivalent(mid, m.valuations[v_label])
                  and V.equivalent(out, m.valuations[w_label]))
            return ok, mid, out

        def check(result):
            ok, mid, out = result
            return ok, f"{V.render_valuation(mid)}>{V.render_valuation(out)}"

        return Op(f"factor-{shape}", call, check)

    def _sober(self, n: int) -> Op:
        spectral = self.spectral
        perm = list(range(n))
        self.rng.shuffle(perm)
        pairs = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                 if self.rng.random() < 0.25]
        # the reflexive-transitive closure, computed here as the oracle
        reach = {x: {x} for x in range(n)}
        for x, y in pairs:
            reach[x].add(y)
        for k in range(n):
            for x in range(n):
                if k in reach[x]:
                    reach[x] |= reach[k]
        expected = frozenset((x, y) for x in range(n) for y in reach[x])

        def call():
            X = spectral.finite_space(range(n), pairs)
            return X, spectral.is_sober(X)

        def check(result):
            X, sober = result
            # a finite T0 space is sober, and a poset is T0
            return (X.order == expected and sober is True,
                    f"{n}:{len(X.order)}:{sober}")

        return Op(f"sober{n}", call, check)


# ---------------------------------------------------------------------------
# cli: one command line per op, in-process through click's CliRunner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliCase:
    args: tuple
    expect: str            # "ok" (exit 0), "domain" (1) or "usage" (2)
    known_defect: bool = False


class CliWorkload:
    name = "cli"

    def __init__(self, seed: int):
        from click.testing import CliRunner
        from adicspec.cli import main
        self.main = main
        self.runner = CliRunner()
        self.rng = random.Random(f"cli:{seed}")
        self.fresh = Fresh(self.rng)

    # -- input pieces ------------------------------------------------------

    def _small_prime(self) -> int:
        return self.fresh.prime(11, 100000)

    def _point(self, p: int, kind: str | None = None) -> str:
        rng = self.rng
        kind = kind or rng.choice(("classical", "ball", "below", "above"))
        c = self.fresh.center(p)
        if kind == "classical":
            return f"classical:{c}"
        r = Fraction(rng.randint(1, 9), 10) if kind == "above" else \
            Fraction(rng.randint(1, 10), 10)
        return f"{kind}:{c},{r}"

    def _fmt(self) -> tuple:
        return ("--format", self.rng.choice(("text", "structured")))

    # -- light, README-sized command lines ---------------------------------

    def _light(self, sub: str) -> CliCase:
        rng, fresh = self.rng, self.fresh
        if sub == "spv":
            ring = rng.choice(("Z", "Q", f"F{self._small_prime()}"))
            args = ("spv", "--ring", ring, "--bound", str(rng.randint(5, 60)))
        elif sub == "eval":
            p = self._small_prime()
            args = ("eval", "--point", self._point(p), "--poly", fresh.poly(4),
                    "-p", str(p))
        elif sub == "classify":
            p = self._small_prime()
            if rng.random() < 0.25:
                args = ("classify", "--tree", "-p", str(p))
            else:
                args = ("classify", "--point", self._point(p), "-p", str(p))
        elif sub == "member":
            p = self._small_prime()
            # a nonzero constant among the generators makes the unit ideal
            subset = (f"R({fresh.poly(3)},{rng.randint(1, 9)};"
                      f"{fresh.poly(3)})")
            args = ("member", "--point", self._point(p), "--subset", subset,
                    "-p", str(p))
        elif sub == "specializes":
            if rng.random() < 0.5:
                q = self._small_prime()
                lits = [f"padic:{q}", f"trivial:{q}", "trivial:0"]
                rng.shuffle(lits)
                args = ("specializes", lits[0], lits[1], "--ring",
                        rng.choice(("Z", "Q")))
            else:
                p = self._small_prime()
                args = ("specializes", self._point(p), self._point(p),
                        "-p", str(p))
        elif sub == "cover":
            p = self._small_prime()
            if rng.random() < 0.5:
                # a leading "-" would read as an option
                args = ("cover", f"({fresh.poly(4)})", "-p", str(p))
            else:
                args = ("cover", linear_text(fresh.center(p)),
                        linear_text(fresh.center(p)),
                        "--kind", "rational", "-p", str(p))
        elif sub == "cech-laurent":
            p = self._small_prime()
            f = fresh.poly(2)
            args = ("cech-laurent", "--f", f, "-N", str(rng.randint(4, 8)),
                    "-p", str(p))
        elif sub == "group":
            args = self._group_args()
        else:  # retract
            if rng.random() < 0.5:
                q, r = self._small_prime(), self._small_prime()
                ideal = rng.choice((f"({q})", f"({r})", f"({q * r})", "(0)"))
                args = ("retract", "--valuation",
                        rng.choice((f"padic:{q}", f"trivial:{q}", "trivial:0")),
                        "--ideal", ideal, "--ring", "Z")
            else:
                p = self._small_prime()
                args = ("retract", "--valuation", self._point(p),
                        "--ideal", f"({p})", "-p", str(p))
        return CliCase(args + self._fmt(), "ok")

    def _rational(self, below_one: bool = False) -> Fraction:
        """A fresh positive rational; in (0, 1) when below_one."""
        def make():
            b = self.rng.randint(2, 9999)
            return Fraction(self.rng.randint(1, b - 1 if below_one else 9999), b)
        return self.fresh.take("rational", make)

    def _non_integer(self) -> str:
        q = self._rational()
        return str(q) if q.denominator > 1 else f"{q}/{2 * q + 1}"

    def _group_args(self) -> tuple:
        rng = self.rng
        op = rng.choice(("mul", "inv", "pow", "cmp", "height", "subgroups"))
        kind = rng.choice(("posq", "lex", "below", "above"))
        if op in ("height", "subgroups"):
            group = {"posq": "posq", "lex": f"lex:{rng.randint(1, 6)}",
                     "below": f"below:{self._rational(True)}",
                     "above": f"above:{self._rational(True)}"}[kind]
            return ("group", op, "--group", group)
        if kind == "posq":
            group, elt = "posq", lambda: str(self._rational())
        elif kind == "lex":
            n = rng.randint(1, 4)
            group = f"lex:{n}"
            elt = lambda: "(" + ",".join(str(self._rational())
                                         for _ in range(n)) + ")"
        else:
            r = self._rational(True)
            mark = "<" if kind == "below" else ">"
            group = f"{kind}:{r}"
            elt = lambda: f"{self._rational()}*g^{rng.randint(-5, 5)}@{r}{mark}"
        if op == "inv":
            operands = (elt(),)
        elif op == "pow":
            operands = (elt(), str(rng.randint(0, 6)))
        else:
            operands = (elt(), elt())
        return ("group", op) + operands + ("--group", group)

    # -- error paths ---------------------------------------------------------

    def _domain_error(self, which: int) -> CliCase:
        p = self._small_prime()
        if which == 0:
            # T - c divides both sides: a common zero inside the disc
            lin = f"({linear_text(self.fresh.center(p))})"
            subset = f"R({lin}*({self.fresh.poly(2)});{lin})"
            args = ("member", "--point", self._point(p), "--subset", subset,
                    "-p", str(p))
        else:
            # N must be at least deg(f) + 2
            args = ("cech-laurent", "--f", self.fresh.poly(6, min_deg=5),
                    "-N", "4", "-p", str(p))
        return CliCase(args + self._fmt(), "domain")

    def _usage_error(self, which: int) -> CliCase:
        p = self._small_prime()
        if which == 0:
            composite = p * self._small_prime()
            args = ("eval", "--point", self._point(p), "--poly",
                    self.fresh.poly(3), "-p", str(composite))
        else:
            args = ("eval", "--point", f"deadend:{self.fresh.center(p)}",
                    "--poly", self.fresh.poly(3), "-p", str(p))
        return CliCase(args + self._fmt(), "usage")

    def _known_defect(self, which: int) -> CliCase:
        """Command lines that give a traceback today although the CLI
        promises exit 2 for a parse error.  They stay in the mix and count
        as failed ops until the CLI is fixed."""
        if which == 0:
            args = ("group", "pow", str(self._rational()),
                    self._non_integer(), "--group", "posq")
        else:
            q = self._small_prime()
            args = ("retract", "--valuation", f"padic:{q}", "--ideal",
                    f"({self._non_integer()})", "--ring", "Z")
        return CliCase(args + self._fmt(), "usage", known_defect=True)

    # -- heavy minority --------------------------------------------------------

    def _heavy(self, which: int) -> CliCase:
        rng, fresh = self.rng, self.fresh
        if which == 0:
            # the cost is the prime checks, about sqrt(p) divisions each
            p = fresh.prime(10 ** 10, 3 * 10 ** 10)
            args = ("eval", "--point", self._point(p), "--poly", fresh.poly(3),
                    "-p", str(p))
        elif which == 1:
            p = self._small_prime()
            base = f"({linear_text(fresh.center(p))})"
            args = ("eval", "--point", self._point(p, "ball"), "--poly",
                    f"{base}^{rng.randint(120, 140)}", "-p", str(p))
        elif which == 2:
            p = self._small_prime()
            args = ("cech-laurent", "--f", fresh.poly(3), "-N",
                    str(rng.randint(40, 50)), "-p", str(p))
        else:
            bound = fresh.take("bound", lambda: rng.randint(1000, 1200))
            args = ("spv", "--ring", "Z", "--bound", str(bound))
        return CliCase(args + self._fmt(), "ok")

    # -- rounds ----------------------------------------------------------------

    LIGHT = ("spv", "eval", "classify", "member", "specializes", "cover",
             "cech-laurent", "group", "retract")
    LIGHT_PER_SUBCOMMAND = 4

    def next_round(self) -> list:
        cases = [self._light(sub) for sub in self.LIGHT
                 for _ in range(self.LIGHT_PER_SUBCOMMAND)]
        cases += [self._domain_error(i) for i in range(2)]
        cases += [self._usage_error(i) for i in range(2)]
        cases += [self._known_defect(i) for i in range(2)]
        cases += [self._heavy(i) for i in range(4)]
        self.rng.shuffle(cases)
        return [self._op(case) for case in cases]

    def _op(self, case: CliCase) -> Op:
        runner, main = self.runner, self.main

        def call():
            return runner.invoke(main, list(case.args))

        def check(result):
            return cli_outcome(case, result), result.stdout

        kind = "known-defect" if case.known_defect else case.args[0]
        return Op(kind, call, check)


def cli_exit_class(result) -> str:
    """The exit class a CliRunner result shows: "ok", "domain", "usage",
    "traceback" for an exception other than SystemExit, or "exit<N>"."""
    exc = result.exception
    if exc is not None and not isinstance(exc, SystemExit):
        return "traceback"
    return {0: "ok", 1: "domain", 2: "usage"}.get(result.exit_code,
                                                  f"exit{result.exit_code}")


def cli_outcome(case: CliCase, result) -> bool:
    """True when the command line ended in its declared exit class."""
    seen = cli_exit_class(result)
    if seen != case.expect:
        return False
    if seen == "domain":
        return result.stderr.startswith("error[")
    if seen == "ok" and "structured" in case.args:
        try:
            json.loads(result.stdout)
        except ValueError:
            return False
    return True


WORKLOADS = {w.name: w for w in (CechWorkload, DiscWorkload, SpvWorkload,
                                 CliWorkload)}
