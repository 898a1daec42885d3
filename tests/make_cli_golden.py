"""Write tests/data/cli_golden.json: the CLI's answers to a fixed corpus.

    PYTHONPATH=src python tests/make_cli_golden.py

runs every command line of ``commands()`` in-process through click's
``CliRunner`` and records its exit code, its stdout and the code of the
``error[code]`` line on stderr (null when there is none).  The corpus holds
every README example, every subcommand in both ``--format``s, ``cech-laurent``
on windows N = 5 to 150, and one input for every error code the CLI can
print.  ``tests/test_cli_golden.py`` replays it, so a refactor that changes
any answer fails.  Regenerate only to record an intended change of output.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import product
from pathlib import Path

from click.testing import CliRunner

from adicspec.cli import main

OUT = Path(__file__).resolve().parent / "data" / "cli_golden.json"

README = [
    ("spv", "--ring", "Z", "--bound", "10"),
    ("eval", "--point", "ball:0,1", "--poly", "5*T+1", "-p", "5"),
    ("classify", "--point", "ball:0,1/3", "-p", "5"),
    ("classify", "--tree", "-p", "2"),
    ("member", "--point", "classical:0", "--subset", "R(1;T)", "-p", "5"),
    ("specializes", "trivial:5", "padic:5", "--ring", "Z"),
    ("specializes", "below:0,1", "ball:0,1", "-p", "5"),
    ("cover", "T", "-p", "5"),
    ("cover", "T", "T-1", "--kind", "rational", "-p", "5"),
    ("cech-laurent", "--f", "T^2-5", "-N", "20", "-p", "5"),
    ("group", "mul", "1/2", "1/3", "--group", "posq"),
    ("group", "subgroups", "--group", "below:1/2"),
    ("retract", "--valuation", "padic:5", "--ideal", "(7)", "--ring", "Z"),
]

# one input per error code the CLI prints (exit 1), and usage and parse
# errors (exit 2)
ERRORS = [
    ("eval", "--point", "ball:0,1", "--poly", "T^100000000", "-p", "5"),
    ("spv", "--ring", "Z", "--bound", "10001"),
    ("cech-laurent", "--f", "T^2-5", "-N", "1001", "-p", "5"),
    ("cech-laurent", "--f", "0", "-p", "5"),
    ("cech-laurent", "--f", "T^2-5", "-N", "3", "-p", "5"),
    ("cover", "T", "T-1", "-p", "5"),
    ("cover", "T", "--kind", "rational", "-p", "5"),
    ("cover", "0", "-p", "5"),
    ("cover", "0", "0", "--kind", "rational", "-p", "5"),
    ("member", "--point", "ball:0,1", "--subset", "R(T;T^2)", "-p", "5"),
    ("member", "--point", "ball:0,1", "--subset", "R(;T)", "-p", "5"),
    ("retract", "--valuation", "padic:5", "--ideal", "(T)", "--ring", "Z"),
    ("retract", "--valuation", "deg:1/2", "--ideal", "(5)", "--ring", "Q"),
    ("retract", "--valuation", "padic:5", "--ideal", "(T^2+1)", "--ring",
     "F5"),
    ("specializes", "padic:5", "padic:7", "--ring", "F5"),
    ("specializes", "ball:0,1", "padic:5", "--ring", "Z"),
    ("spv", "--ring", "Z", "--bound", "-3"),
    ("spv", "--ring", "R"),
    ("spv", "--ring", "F4"),
    ("eval", "--point", "ball:0,1", "--poly", "T+", "-p", "5"),
    ("eval", "--point", "ball:0,2", "--poly", "T", "-p", "5"),
    ("eval", "--point", "ball:0,1", "--poly", "T", "-p", "6"),
    ("eval", "--point", "ball:0,1", "--poly", "5*T+1", "-p",
     "3317044064679887385961981"),
    ("eval", "--point", "ball:0,1", "--poly", "(T+1)^5000", "-p", "5"),
    ("eval", "--point", "wat:0", "--poly", "T", "-p", "5"),
    ("eval", "--point", "ball:0,1", "--poly", "T", "-p", "five"),
    ("eval", "--point", "ball:0,1"),
    ("classify",),
    ("classify", "--point", "classical:7/2", "-p", "7"),
    ("classify", "--point", "above:0,1", "-p", "5"),
    ("member", "--point", "ball:0,1", "--subset", "R(1,T", "-p", "5"),
    ("group", "height", "--group", "wat"),
    ("group", "mul", "1", "--group", "posq"),
    ("group", "mul", "(1,2)", "(1)", "--group", "lex:2"),
    ("group", "mul", "0", "1", "--group", "posq"),
    ("group", "height", "--group", "below:2"),
    ("group", "height", "--group", "above:1"),
    ("group", "height", "--group", "lex:0"),
    ("group", "pow", "1/2", "3/7", "--group", "posq"),
    ("group", "mul", "2", "1", "--group", "trivial"),
    ("group", "frobnicate", "--group", "posq"),
    ("retract", "--valuation", "padic:5", "--ideal", "(1/2)", "--ring", "Z"),
    ("retract", "--valuation", "padic:4", "--ideal", "(5)", "--ring", "Z"),
    ("retract", "--valuation", "padic:5", "--ideal", "()", "--ring", "Z"),
    ("retract", "--valuation", "wat:5", "--ideal", "(5)", "--ring", "Z"),
    ("specializes", "trivial:9", "padic:5", "--ring", "Z"),
    ("specializes", "deg:2", "deg:1/2", "--ring", "Q"),
    ("specializes", "deg:1/0", "deg:1/2", "--ring", "Q"),
    ("cech-laurent", "--f", "T", "-N", "x", "-p", "5"),
    ("cover", "T", "--kind", "polar", "-p", "5"),
    ("nosuchcommand",),
    ("--nosuchoption",),
]

POINTS = ["classical:0", "classical:1/3", "classical:5", "ball:0,1",
          "ball:1/2,1/4", "ball:0,1/5", "ball:1,1/25", "below:0,1/2",
          "above:0,1/2", "below:1/3,1"]
POLYS = ["T", "5*T+1", "T^2-5", "(T+1)^3", "3/4*T^3-(T+1)^2", "T^5+T",
         "1/5", "T-1/3"]
SUBSETS = ["R(1;T)", "R(T;1)", "R(T;T^2)", "R(5,T;T+1)", "R(1,T;5)",
           "R(T^2-5;1)"]
GROUPS = ["trivial", "lex:1", "lex:3", "posq", "below:1/2", "above:1/3"]
ELEMENTS = {
    "trivial": ["1"],
    "lex:1": ["(1)", "(-2/3)", "(0)"],
    "lex:3": ["(1,0,0)", "(0,-1,2)", "(0,0,1/2)"],
    "posq": ["1/2", "3", "1"],
    "below:1/2": ["1*g^1@1/2<", "1/2*g^0@1/2<", "2/3*g^-2@1/2<"],
    "above:1/3": ["1*g^1@1/3>", "3*g^0@1/3>", "1/2*g^2@1/3>"],
}


def commands() -> list:
    cmds = list(README)
    for ring, bound in product(["Z", "Q"], ["0", "1", "2", "3", "5", "10",
                                            "30"]):
        cmds.append(("spv", "--ring", ring, "--bound", bound))
    cmds += [("spv", "--ring", r, "--bound", "10") for r in ("F2", "F3", "F7")]
    for point, poly in product(POINTS, POLYS[:6]):
        cmds.append(("eval", "--point", point, "--poly", poly, "-p", "5"))
    for p, poly in product(["2", "3", "7"], POLYS[:4]):
        cmds.append(("eval", "--point", "ball:0,1/2", "--poly", poly,
                     "-p", p))
    cmds.append(("eval", "--point", "ball:1/3,1/2", "--poly", "(T+1)^400",
                 "-p", "5"))
    for point, p in product(POINTS, ["2", "5"]):
        cmds.append(("classify", "--point", point, "-p", p))
    cmds += [("classify", "--tree", "-p", p) for p in ("3", "5")]
    for point, subset in product(POINTS[:6], SUBSETS):
        cmds.append(("member", "--point", point, "--subset", subset,
                     "-p", "5"))
    for x, y in product(["trivial:0", "trivial:5", "padic:5", "padic:7"],
                        repeat=2):
        cmds.append(("specializes", x, y, "--ring", "Z"))
    for x, y in product(["classical:0", "ball:0,1", "below:0,1",
                         "ball:0,1/5"], repeat=2):
        cmds.append(("specializes", x, y, "-p", "5"))
    cmds += [("specializes", x, y, "--ring", "Q")
             for x, y in [("deg:1/2", "trivial:0"), ("trivial:0", "deg:1/2"),
                          ("padic:3", "trivial:0")]]
    for g in ["T", "5*T+1", "T^2-5", "T-1", "T^2+T+1", "1/5*T"]:
        cmds.append(("cover", g, "-p", "5"))
    for gens in [("T", "T-1"), ("T", "5"), ("1", "T", "T^2"), ("T+1", "T-1"),
                 ("T^2-5", "1")]:
        cmds.append(("cover", *gens, "--kind", "rational", "-p", "5"))
    # a window's cost grows linearly in N, so few windows are large
    for N in [5, 6, 7, 8, 10, 16, 25, 40, 64]:
        cmds.append(("cech-laurent", "--f", "T", "-N", str(N), "-p", "5"))
    for f, p, N in product(["5*T+1", "T^2-5", "T^3+2*T-1", "1/2*T^2+T"],
                           ["3", "5"], [7, 11, 20]):
        cmds.append(("cech-laurent", "--f", f, "-N", str(N), "-p", p))
    cmds.append(("cech-laurent", "--f", "T^3+2*T-1", "-N", "150", "-p", "3"))
    for G in GROUPS:
        els = ELEMENTS[G]
        for a, b in product(els, repeat=2):
            cmds.append(("group", "mul", a, b, "--group", G))
            cmds.append(("group", "cmp", a, b, "--group", G))
        for a in els:
            cmds.append(("group", "inv", a, "--group", G))
            cmds += [("group", "pow", a, n, "--group", G)
                     for n in ("3", "-2")]
        cmds.append(("group", "height", "--group", G))
        cmds.append(("group", "subgroups", "--group", G))
    for v, ideal, ring in [("padic:5", "(5)", "Z"), ("padic:5", "(7)", "Z"),
                           ("trivial:0", "(5)", "Z"), ("trivial:5", "(5)", "Z"),
                           ("padic:3", "(6)", "Z"), ("trivial:0", "(0)", "Z"),
                           ("padic:5", "(5)", "Q"), ("ball:0,1", "(5)", "Z"),
                           ("classical:0", "(5)", "Z")]:
        cmds.append(("retract", "--valuation", v, "--ideal", ideal,
                     "--ring", ring, "-p", "5"))
    # the README examples and every sixth command above once more with
    # structured output
    cmds += [(*c, "--format", "structured")
             for c in README + cmds[len(README)::6]]
    cmds += ERRORS
    cmds += [("--version",), ("--help",)]
    cmds += [(sub, "--help") for sub in
             ("spv", "eval", "classify", "member", "specializes", "cover",
              "cech-laurent", "group", "retract")]
    return [list(c) for c in cmds]


def answer(args: list) -> dict:
    res = CliRunner().invoke(main, args)
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        raise RuntimeError(f"{args}: {res.exception!r}")
    m = re.match(r"error\[([a-z-]+)\]", res.stderr)
    return {"args": args, "exit_code": res.exit_code, "stdout": res.stdout,
            "stderr_code": m.group(1) if m else None}


def write_corpus() -> None:
    entries = [answer(args) for args in commands()]
    OUT.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    codes = sorted({e["stderr_code"] for e in entries if e["stderr_code"]})
    print(f"{len(entries)} commands, codes {codes}", file=sys.stderr)


if __name__ == "__main__":
    write_corpus()
