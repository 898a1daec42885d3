"""Per-layer tracing of adicspec from outside the library.

``Tracer.install()`` replaces each traced function by a timing wrapper in
every adicspec module that holds it, because modules import functions by
name (``cech`` holds its own ``rank``, ``value`` its own ``group_cmp``).
Two methods are patched on their class instead: ``PadicContext`` and
``FiniteSpace`` validation in ``__post_init__``.  Nothing under ``src/``
changes.  References the rebinding cannot reach, such as a key function
built from ``group_cmp`` at import time, are listed in ``unreachable``.

Wrappers record only while ``active`` is set, so input construction and
result checks between timed ops stay out of the counts.  A span's self
time is its duration minus the full duration (bookkeeping included) of
the wrapped calls nested in it; bookkeeping therefore shows in the
tracing overhead but in no layer's self time.
"""

from __future__ import annotations

import gc
import importlib
import types
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

MODULES = ("ordgroup", "value", "polys", "linalg", "tate", "disc",
           "valuation", "spectral", "cech", "cli")

FUNCTIONS = (
    ("linalg", "rank"), ("linalg", "mat_mul"),
    ("cech", "presheaf"), ("cech", "parse_presheaf_text"),
    ("cech", "build_complex"), ("cech", "alternating_subcomplex"),
    ("cech", "cohomology"), ("cech", "_differential"),
    ("cech", "check_laurent_exactness"),
    ("polys", "taylor_shift"), ("polys", "poly_mul"), ("polys", "poly_gcd"),
    ("polys", "poly_pow"),
    ("tate", "parse_series"), ("tate", "generates_unit_ideal"),
    ("tate", "newton_polygon"),
    ("disc", "eval_at"), ("disc", "in_rational_subset"),
    ("disc", "rational_subset"), ("disc", "intersect_rational"),
    ("valuation", "equivalent"), ("valuation", "eval_valuation"),
    ("valuation", "retract"), ("valuation", "specializes"),
    ("spectral", "spv_enumerate"), ("spectral", "finite_space"),
    ("spectral", "closure"), ("spectral", "is_sober"),
    ("spectral", "factor_specialization"),
    ("ordgroup", "group_cmp"), ("ordgroup", "group_mul"),
    ("value", "value_cmp"),
)

# (module, class): the class's __post_init__ is the span
VALIDATORS = (("tate", "PadicContext"), ("spectral", "FiniteSpace"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.open: Counter = Counter()     # spans currently on the stack
        self.stack: list = []              # child time of each open span
        self.top_s = 0.0                   # full time of outermost spans
        self.outside_s = 0.0               # op time outside every span
        self.seen_keys: defaultdict = defaultdict(set)
        self.sites: dict = {}              # span -> ["module.name", ...]
        self.missing: list = []
        self.unreachable: list = []
        self._restore: list = []
        self._op_top = 0.0

    # -- bookkeeping hooks, run outside the measured interval --------------

    def _seen(self, span: str, key) -> None:
        keys = self.seen_keys[span]
        if key in keys:
            self.counts[f"{span}.repeats"] += 1
        else:
            keys.add(key)

    def _pre(self, span: str, args) -> None:
        if span == "linalg.rank":
            m = args[0]
            self.counts["linalg.rank.entries"] += len(m) * len(m[0]) if m else 0
            self.counts["linalg.rank.nonzeros"] += sum(
                1 for row in m for x in row if x != 0)
        elif span == "polys.taylor_shift":
            f, c = args
            self._seen(span, (frozenset(f.items()), Fraction(c)))
            self.counts["polys.taylor_shift.degrees"] += max(f) if f else 0
        elif span == "tate.PadicContext":
            self._seen(span, args[0].p)
        elif span == "valuation.eval_valuation":
            if self.open["valuation.equivalent"]:
                self.counts["valuation.eval_valuation.in_equivalent"] += 1

    def _post(self, span: str, result) -> None:
        if span == "cech._differential":
            _, src_dim, dst_dim = result
            self.counts["cech.complex_entries"] += src_dim * dst_dim

    def _wrap(self, span: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            enter = perf_counter()
            tracer._pre(span, args)
            tracer.open[span] += 1
            tracer.stack.append(0.0)
            returned = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = perf_counter()
                child = tracer.stack.pop()
                tracer.open[span] -= 1
                tracer.self_s[span] += t1 - t0 - child
                tracer.calls[span] += 1
                if returned:
                    tracer._post(span, result)
                full = perf_counter() - enter
                if tracer.stack:
                    tracer.stack[-1] += full
                else:
                    tracer.top_s += full
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"adicspec.{name}")
                for name in MODULES}
        originals = {}
        for modname, attr in FUNCTIONS:
            fn = getattr(mods[modname], attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            span = f"{modname}.{attr}"
            originals[id(fn)] = (span, fn, self._wrap(span, fn))
        for modname, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[1] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[2])
                    self.sites.setdefault(hit[0], []).append(f"{modname}.{name}")
        for modname, clsname in VALIDATORS:
            cls = getattr(mods[modname], clsname, None)
            fn = getattr(cls, "__post_init__", None)
            if fn is None:
                self.missing.append(f"{modname}.{clsname}.__post_init__")
                continue
            span = f"{modname}.{clsname}"
            self._restore.append((cls, "__post_init__", fn))
            setattr(cls, "__post_init__", self._wrap(span, fn))
            self.sites[span] = [f"{modname}.{clsname}.__post_init__"]
            originals[id(fn)] = (span, fn, None)
        self.unreachable = _unreachable(mods, originals)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # -- op boundaries ----------------------------------------------------------

    def begin_op(self) -> None:
        self._op_top = self.top_s
        self.active = True

    def end_op(self, op_seconds: float) -> None:
        self.active = False
        self.outside_s += op_seconds - (self.top_s - self._op_top)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer figure this tracer can give, by metric name."""
        out = {}
        spans = {f"{m}.{a}" for m, a in FUNCTIONS} | \
            {f"{m}.{c}" for m, c in VALIDATORS}
        for span in spans:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        c = self.counts
        out["linalg.rank.entries"] = c["linalg.rank.entries"]
        out["linalg.rank.nonzero_ratio"] = _ratio(
            c["linalg.rank.nonzeros"], c["linalg.rank.entries"])
        out["cech.complex_entries"] = c["cech.complex_entries"]
        out["polys.taylor_shift.repeat_ratio"] = _ratio(
            c["polys.taylor_shift.repeats"], self.calls["polys.taylor_shift"])
        out["polys.taylor_shift.mean_degree"] = _ratio(
            c["polys.taylor_shift.degrees"], self.calls["polys.taylor_shift"])
        out["tate.PadicContext.constructions"] = self.calls["tate.PadicContext"]
        out["tate.PadicContext.repeat_ratio"] = _ratio(
            c["tate.PadicContext.repeats"], self.calls["tate.PadicContext"])
        out["spectral.FiniteSpace.validate_s"] = self.self_s["spectral.FiniteSpace"]
        out["valuation.eval_valuation.per_equivalent"] = _ratio(
            c["valuation.eval_valuation.in_equivalent"],
            self.calls["valuation.equivalent"])
        return out


def _unreachable(mods: dict, originals: dict) -> list:
    """Names whose objects hold a traced function where rebinding cannot
    replace it (a closure, a default, a cmp_to_key wrapper, ...)."""
    found = []
    for modname, mod in mods.items():
        for name, obj in vars(mod).items():
            if isinstance(obj, (types.ModuleType, type)) or id(obj) in originals:
                continue
            if getattr(obj, "__wrapped__", None) is not None:
                continue
            frontier, seen = [obj], {id(obj)}
            for _ in range(3):
                nxt = []
                for ref in (r for o in frontier for r in gc.get_referents(o)):
                    if id(ref) in seen or isinstance(ref, (types.ModuleType, type)):
                        continue
                    seen.add(id(ref))
                    hit = originals.get(id(ref))
                    if hit is not None and hit[1] is ref:
                        found.append(f"{modname}.{name} -> {hit[0]}")
                    elif not isinstance(ref, dict):
                        nxt.append(ref)
                frontier = nxt
    return sorted(set(found))
