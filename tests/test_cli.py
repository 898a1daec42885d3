"""End-to-end tests of the command-line interface."""

import contextlib
import gc
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adicspec import __version__, spectral, valuation
from adicspec.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(*args):
    return CliRunner().invoke(main, list(args))


class TestSpv:
    def test_z_table(self):
        res = run("spv", "--ring", "Z", "--bound", "5")
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "7 points"
        assert "|.|_05 | trivial | (5) | {|.|_05}" in res.output
        assert "|.|_5 <- |.|_0" in res.output
        assert "|.|_05 <- |.|_5" in res.output

    def test_q(self):
        res = run("spv", "--ring", "Q", "--bound", "5")
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "4 points"

    def test_finite_field(self):
        res = run("spv", "--ring", "F7", "--bound", "10")
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "1 points"

    def test_structured(self):
        res = run("spv", "--ring", "Z", "--bound", "3", "--format", "structured")
        data = json.loads(res.output)
        assert len(data["points"]) == 5
        by_label = {row["point"]: row for row in data["points"]}
        assert by_label["|.|_2"]["closure"] == ["|.|_02", "|.|_2"]

    def test_unknown_ring(self):
        res = run("spv", "--ring", "R")
        assert res.exit_code == 2

    def test_nonprime_field_rejected(self):
        res = run("spv", "--ring", "F4")
        assert res.exit_code == 2

    def test_negative_bound_parse_error(self):
        res = run("spv", "--ring", "Z", "--bound", "-3")
        assert res.exit_code == 2
        assert "error[parse-error]" in res.output
        assert res.stdout == ""

    def test_bounds_zero_and_one_valid(self):
        for bound in ("0", "1"):
            res = run("spv", "--ring", "Z", "--bound", bound)
            assert res.exit_code == 0
            assert res.output.splitlines()[0] == "1 points"

    @pytest.mark.parametrize("ring", ["Z", "Q"])
    def test_closure_column_is_the_closure_of_the_point(self, ring):
        res = run("spv", "--ring", ring, "--bound", "60", "--format",
                  "structured")
        assert res.exit_code == 0
        model = spectral.spv_enumerate(valuation.RING_Z if ring == "Z"
                                       else valuation.RING_Q, 60)
        rows = json.loads(res.stdout)["points"]
        assert [row["point"] for row in rows] == list(model.space.points)
        for row in rows:
            assert row["closure"] == sorted(
                spectral.closure(model.space, {row["point"]}))

    @pytest.mark.parametrize("bound", ["10001", "100000000"])
    def test_bound_above_the_cap_too_large(self, bound):
        assert spectral.MAX_BOUND == 10000
        t0 = time.perf_counter()
        res = run("spv", "--ring", "Z", "--bound", bound)
        assert time.perf_counter() - t0 < 1.0
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error[too-large]")

    def test_bound_at_the_cap_accepted(self):
        # F7 lists no primes, so this checks the cap, not the enumeration.
        res = run("spv", "--ring", "F7", "--bound", "10000")
        assert res.exit_code == 0
        assert res.stdout.splitlines()[0] == "1 points"


class TestEval:
    def test_gauss(self):
        res = run("eval", "--point", "ball:0,1", "--poly", "5*T+1", "-p", "5")
        assert res.exit_code == 0
        assert res.output.strip() == "1"

    def test_classical(self):
        res = run("eval", "--point", "classical:5", "--poly", "T", "-p", "5")
        assert res.output.strip() == "1/5"

    def test_structured(self):
        res = run("eval", "--point", "ball:0,1/2", "--poly", "T", "-p", "2",
                  "--format", "structured")
        data = json.loads(res.output)
        assert data["value"] == "1/2"
        assert data["point"] == "ball:0,1/2"

    def test_parse_error_exit_2(self):
        res = run("eval", "--point", "ball:0,1", "--poly", "T+", "-p", "5")
        assert res.exit_code == 2
        assert "error[" in res.stderr

    def test_bad_point_exit_2(self):
        res = run("eval", "--point", "ball:0,2", "--poly", "T", "-p", "5")
        assert res.exit_code == 2

    def test_nonprime_rejected(self):
        res = run("eval", "--point", "ball:0,1", "--poly", "T", "-p", "6")
        assert res.exit_code == 2

    @pytest.mark.parametrize("p", ["1000000000039", "1000000000000000003"])
    def test_large_prime_is_fast(self, p):
        t0 = time.perf_counter()
        res = run("eval", "--point", "ball:0,1", "--poly", "5*T+1", "-p", p)
        assert time.perf_counter() - t0 < 1.0
        assert (res.exit_code, res.stdout) == (0, "1\n")

    def test_prime_beyond_the_proven_range_too_large(self):
        res = run("eval", "--point", "ball:0,1", "--poly", "5*T+1",
                  "-p", "3317044064679887385961981")
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error[too-large]")

    @pytest.mark.parametrize("poly", [
        "T^100000000", "(T+1)^100000", "T^6000*T^6000",
        # under the degree cap but refused on size: expanding (T+1)^2000
        # took 1.7 s, (T+1)^5000 32 s and (T+1)^2500*(T+1)^2500 47 s
        "(T+1)^5000", "(T+1)^2500*(T+1)^2500", "((T+1)^50)^100",
        "(T+1)^2000", "(99999999999^10000)^10000",
        # parsed, but its 4400-digit constant exceeds the int-to-text limit
        "99999999999^400"])
    def test_degree_cap(self, poly):
        t0 = time.perf_counter()
        res = run("eval", "--point", "ball:0,1", "--poly", poly, "-p", "5")
        assert time.perf_counter() - t0 < 1.0
        assert res.exit_code == 1
        assert res.stderr.startswith("error[too-large]")

    def test_power_within_the_cap(self):
        args = ("eval", "--point", "ball:1/3,1/2", "--poly", "(T+1)^400", "-p", "5")
        assert run(*args).stdout == "1\n"
        data = json.loads(run(*args, "--format", "structured").stdout)
        assert data["poly"].startswith("T^400 + 400*T^399 + 79800*T^398 + ")
        assert data["poly"].endswith(" + 79800*T^2 + 400*T + 1")


class TestHostileSizes:
    """Inputs that once ran for seconds or ended in a traceback."""

    @pytest.mark.parametrize("args", [
        ("group", "pow", "1/2", "100000000", "--group", "posq"),
        ("group", "pow", "2/3*g^1@1/2<", "20000", "--group", "below:1/2"),
        ("group", "pow", "3/2", "100000000", "--group", "posq"),
        ("group", "cmp", "2*g^100000000000000000000@1/2<", "1*g^1@1/2<",
         "--group", "below:1/2"),
        ("group", "subgroups", "--group", "lex:100000000"),
        ("group", "subgroups", "--group", "lex:1000000"),
        ("eval", "--point", "ball:0,1/3", "--poly", "T^10000", "-p", "3"),
        ("eval", "--point", "ball:1,1/3", "--poly", "T^10000", "-p", "3"),
        ("eval", "--point", "ball:0,1/" + "5" * 1000, "--poly", "(T+1)^400",
         "-p", "5"),
        ("member", "--point", "below:1/2,1/2", "--subset", "R(T^9000;1)",
         "-p", "3"),
        ("eval", "--point", "ball:0,1", "--poly",
         "(" + "+".join(f"T^{i}" for i in range(1, 4001)) + ")^2", "-p", "5"),
        # Horner's scheme at a 4000-digit centre: 7 s to 9 s of work
        ("eval", "--point", "classical:" + "7" * 4000, "--poly", "T^400+1",
         "-p", "5"),
    ])
    def test_too_large_within_a_second(self, args):
        t0 = time.perf_counter()
        res = run(*args)
        assert time.perf_counter() - t0 < 1.0
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert (res.exit_code, res.stdout) == (1, "")
        assert res.stderr.startswith("error[too-large]")

    def test_gauss_point_needs_no_shift(self):
        # the closed disc of radius 1 is centred at 0 as well: no shift
        t0 = time.perf_counter()
        res = run("eval", "--point", "ball:1,1", "--poly", "T^10000",
                  "-p", "3")
        assert time.perf_counter() - t0 < 1.0
        assert (res.exit_code, res.stdout) == (0, "1\n")

    def test_sparse_square_within_the_cap(self):
        # one convolution of 2 x 5001 products, not 5001 x 5001
        res = run("eval", "--point", "ball:0,1", "--poly", "(T^5000+1)^2",
                  "-p", "5")
        assert (res.exit_code, res.stdout) == (0, "1\n")

    @pytest.mark.parametrize("point, poly, code", [
        # the README's boundaries of the expansion and the shift price
        ("ball:0,1", "(T+1)^1413", 0), ("ball:0,1", "(T+1)^1414", 1),
        ("ball:1,1/3", "T^3000", 1)])
    def test_readme_boundaries(self, point, poly, code):
        res = run("eval", "--point", point, "--poly", poly, "-p", "5")
        assert res.exit_code == code
        assert res.stderr.startswith("error[too-large]") == (code == 1)


def _rational_slots(x: str):
    """One command line per slot of the CLI that reads a rational; each
    exits 0 for x = 1/2."""
    return [
        ("eval", "--point", f"classical:{x}", "--poly", "T", "-p", "5"),
        ("eval", "--point", f"ball:{x},1", "--poly", "T", "-p", "5"),
        ("member", "--point", f"ball:0,{x}", "--subset", "R(T;1)", "-p", "5"),
        ("classify", "--point", f"below:1,{x}", "-p", "5"),
        ("specializes", f"above:{x},1/5", "ball:0,1", "-p", "5"),
        ("specializes", f"deg:{x}", "deg:1/3"),
        ("retract", "--valuation", "padic:5", "--ideal", f"({x})",
         "--ring", "Q"),
        ("group", "cmp", x, "1", "--group", "posq"),
        ("group", "cmp", f"({x},1)", "(1,1)", "--group", "lex:2"),
        ("group", "cmp", f"{x}*g^1@1/2<", "1*g^1@1/2<", "--group", "below:1/2"),
        ("group", "cmp", f"1*g^1@{x}>", "1*g^1@1/2>", "--group", "above:1/2"),
        ("group", "height", "--group", f"below:{x}"),
        ("group", "height", "--group", f"above:{x}"),
    ]


class TestRationalLiterals:
    """Every rational in a literal is [-]digits[/digits]: exponents and
    over-long literals end at once with a code, never in Python's text."""

    @pytest.mark.parametrize("args", [
        args for x in ("1e-99999", "1e-999999", "9" * 5000, "1/" + "7" * 5000)
        for args in _rational_slots(x)], ids=lambda args: " ".join(
            a if len(a) < 20 else a[:17] + "..." for a in args))
    def test_refused_at_once_with_a_code(self, args):
        t0 = time.perf_counter()
        res = run(*args)
        assert time.perf_counter() - t0 < 0.1
        assert res.exit_code in (1, 2) and res.stdout == ""
        assert res.stderr.startswith(("error[parse-error]", "error[too-large]"))
        assert "Exceeds the limit" not in res.stderr

    @pytest.mark.parametrize("args", _rational_slots("1/2")
                             + _rational_slots(" 1/2 "))
    def test_plain_rationals_still_read(self, args):
        assert run(*args).exit_code == 0


def _integer_slots(n: str):
    """One command line per slot of the CLI that reads an integer; each
    exits 0 for n = 11."""
    return [
        ("eval", "--point", "ball:0,1", "--poly", f"{n}*T", "-p", "5"),
        ("eval", "--point", "ball:0,1", "--poly", f"T^{n}", "-p", "5"),
        ("specializes", f"padic:{n}", "trivial:0", "--ring", "Z"),
        ("specializes", f"trivial:{n}", "trivial:0", "--ring", "Z"),
        ("retract", "--valuation", "padic:5", "--ideal", f"({n})",
         "--ring", "Z"),
        ("spv", "--ring", f"F{n}"),
        ("group", "height", "--group", f"lex:{n}"),
        ("group", "pow", "1/2", n, "--group", "posq"),
        ("group", "inv", f"1*g^{n}@1/2<", "--group", "below:1/2"),
    ]


class TestIntegerLiterals:
    """Every integer in a literal is [-]digits in ASCII: int() would also
    read other scripts' digits and underscores."""

    @pytest.mark.parametrize("args", [
        args for n in ("\u0665", "1_1", "\u00b2") for args in _integer_slots(n)],
        ids=lambda args: " ".join(args).encode("unicode_escape").decode())
    def test_other_digits_are_parse_errors(self, args):
        res = run(*args)
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr.startswith("error[parse-error]")

    @pytest.mark.parametrize("args", _integer_slots("11"))
    def test_ascii_integers_still_read(self, args):
        assert run(*args).exit_code == 0


class TestClassify:
    def test_point(self):
        res = run("classify", "--point", "ball:0,1/3", "-p", "5")
        assert res.output.strip() == "type 3"

    def test_tree(self):
        res = run("classify", "--tree", "-p", "2")
        assert res.exit_code == 0
        assert "gauss point" in res.output
        assert "(type 1)" in res.output and "(type 2)" in res.output

    def test_requires_point_or_tree(self):
        res = run("classify")
        assert res.exit_code == 2


class TestMember:
    def test_true(self):
        res = run("member", "--point", "ball:0,1", "--subset", "R(1;T)",
                  "-p", "5")
        assert res.output.strip() == "true"

    def test_false(self):
        res = run("member", "--point", "classical:0", "--subset", "R(1;T)",
                  "-p", "5")
        assert res.output.strip() == "false"

    def test_structured(self):
        res = run("member", "--point", "classical:0", "--subset", "R(T;1)",
                  "-p", "5", "--format", "structured")
        data = json.loads(res.output)
        assert data["member"] is True

    def test_malformed_subset_domain_error(self):
        res = run("member", "--point", "ball:0,1", "--subset", "R(T;T^2)",
                  "-p", "5")
        assert res.exit_code == 1
        assert "error[" in res.stderr


class TestSpecializes:
    def test_valuations(self):
        res = run("specializes", "trivial:5", "padic:5", "--ring", "Z")
        assert res.output.strip() == "true"
        res = run("specializes", "padic:5", "padic:7", "--ring", "Z")
        assert res.output.strip() == "false"

    def test_points(self):
        res = run("specializes", "below:0,1", "ball:0,1", "-p", "5")
        assert res.output.strip() == "true"

    def test_mixed_literals_rejected(self):
        res = run("specializes", "ball:0,1", "padic:5", "--ring", "Z")
        assert res.exit_code == 1

    def test_wrong_ring_names_both_rings(self):
        res = run("specializes", "deg:1/2", "trivial:0", "--ring", "Q")
        assert res.exit_code == 1
        assert res.stderr == "error[wrong-ring]: Q(T) vs Q\n"
        res = run("specializes", "ball:0,1", "padic:5", "--ring", "Z")
        assert res.stderr == "error[wrong-ring]: Q[T] vs Z\n"
        res = run("specializes", "trivial:0", "padic:5", "--ring", "F7")
        assert res.stderr.startswith("error[wrong-ring]")
        assert "F7" in res.stderr and "BaseRing(" not in res.stderr


class TestCover:
    def test_laurent(self):
        res = run("cover", "T", "-p", "5")
        assert res.exit_code == 0
        assert "laurent cover, 2 members" in res.output
        assert "R(T;1)" in res.output and "R(1;T)" in res.output

    def test_laurent_needs_one_generator(self):
        res = run("cover", "T", "T-1", "-p", "5")
        assert res.exit_code == 2

    def test_rational(self):
        res = run("cover", "T", "T-1", "--kind", "rational", "-p", "5")
        assert res.exit_code == 0
        assert "rational cover, 2 members" in res.output

    def test_rational_not_unit_ideal(self):
        res = run("cover", "T", "--kind", "rational", "-p", "5")
        assert res.exit_code == 1


class TestCechLaurent:
    def test_exact(self):
        res = run("cech-laurent", "--f", "T", "-N", "8", "-p", "5")
        assert res.exit_code == 0
        assert "exact: true" in res.output

    def test_structured(self):
        res = run("cech-laurent", "--f", "T^2-5", "-N", "10", "-p", "5",
                  "--format", "structured")
        data = json.loads(res.output)
        assert data["exact"] is True
        assert data["lambda_rank"] == 21

    def test_zero_series_domain_error(self):
        res = run("cech-laurent", "--f", "0", "-p", "5")
        assert res.exit_code == 1

    def test_window_too_large(self):
        res = run("cech-laurent", "--f", "T^2-5", "-N", "10000", "-p", "5")
        assert res.exit_code == 1
        assert "error[too-large]" in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("f, code", [("(T+1)^6", 0), ("(T+1)^7", 1)])
    def test_readme_window_boundary(self, f, code):
        res = run("cech-laurent", "--f", f, "-N", "1000", "-p", "5")
        assert res.exit_code == code

    def test_window_priced_by_degree(self):
        # N = 1000 is allowed, but not with a degree-900 f: 8 s of work
        t0 = time.perf_counter()
        res = run("cech-laurent", "--f", "(T+1)^900", "-N", "1000", "-p", "5")
        assert time.perf_counter() - t0 < 1
        assert res.exit_code == 1
        assert "error[too-large]" in res.output


class TestGroup:
    def test_mul(self):
        res = run("group", "mul", "1/2", "1/3", "--group", "posq")
        assert res.output.strip() == "1/6"

    def test_inv_lex(self):
        res = run("group", "inv", "(1,-2)", "--group", "lex:2")
        assert res.output.strip() == "(-1,2)"

    def test_pow(self):
        res = run("group", "pow", "1/2", "3", "--group", "posq")
        assert res.output.strip() == "1/8"

    def test_cmp(self):
        # (1,1) and (1/2,0) both fold to real part 1/2; the extra g factor
        # makes the first strictly smaller in the below-model
        res = run("group", "cmp", "1*g^1@1/2<", "1/2*g^0@1/2<",
                  "--group", "below:1/2")
        assert res.output.strip() == "<"

    def test_height(self):
        assert run("group", "height", "--group", "posq").output.strip() == "1"
        assert run("group", "height", "--group", "lex:3").output.strip() == "3"

    def test_subgroups(self):
        res = run("group", "subgroups", "--group", "below:1/2")
        assert res.exit_code == 0
        assert len(res.output.strip().splitlines()) == 3

    def test_bad_literal(self):
        res = run("group", "height", "--group", "wat")
        assert res.exit_code == 2

    def test_wrong_arity(self):
        res = run("group", "mul", "1", "--group", "posq")
        assert res.exit_code == 2

    def test_malformed_element_parse_error(self):
        for args in (("(1,2)", "(1)", "--group", "lex:2"),
                     ("0", "1", "--group", "posq"),
                     ("0*g^1@1/2<", "1*g^1@1/2<", "--group", "below:1/2")):
            res = run("group", "mul", *args)
            assert res.exit_code == 2
            assert "error[parse-error]" in res.output

    @pytest.mark.parametrize("args", [
        ("mul", "1*g^1@", "1*g^1@"), ("pow", "padic:*@", "T"),
        ("cmp", "1*g^1@<", "1*g^1@1/2<")])
    def test_radius_element_without_a_radius_parse_error(self, args):
        res = run("group", *args, "--group", "below:1/2")
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error[parse-error]")

    @pytest.mark.parametrize("group", ["below:2", "below:0", "above:1",
                                       "above:-1/2"])
    def test_radius_out_of_range_parse_error(self, group):
        res = run("group", "height", "--group", group)
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error[parse-error]")

    def test_pow_non_integer_exponent_parse_error(self):
        res = run("group", "pow", "1/2", "3/7", "--group", "posq")
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error[parse-error]")


class TestRetract:
    def test_padic_fixed(self):
        res = run("retract", "--valuation", "padic:5", "--ideal", "(5)",
                  "--ring", "Z")
        assert res.output.strip() == "padic:5"

    def test_other_prime(self):
        res = run("retract", "--valuation", "padic:5", "--ideal", "(7)",
                  "--ring", "Z")
        assert res.output.strip() == "trivial:5"

    def test_structured(self):
        res = run("retract", "--valuation", "trivial:0", "--ideal", "(5)",
                  "--ring", "Z", "--format", "structured")
        data = json.loads(res.output)
        assert data["retract"] == "trivial:0"

    @pytest.mark.parametrize("head", ["deadend", "type4"])
    def test_type4_points_refused(self, head):
        res = run("retract", "--valuation", f"{head}:0", "--ideal", "(5)",
                  "-p", "5")
        assert res.exit_code == 2
        assert res.stderr.startswith("error[parse-error]: type-4 dead-end")

    def test_ideal_read_on_the_points_ring(self):
        res = run("retract", "--valuation", "ball:0,1", "--ideal", "(T, 5)",
                  "-p", "5")
        assert res.exit_code == 0 and res.output.strip() == "point:ball:0,1"

    def test_degree_valuation_has_no_ideal_of_definition(self):
        res = run("retract", "--valuation", "deg:1/2", "--ideal", "(5)",
                  "--ring", "Q")
        assert res.exit_code == 1
        assert res.stderr.startswith("error[wrong-ring]")
        assert "Q(T)" in res.stderr and "BaseRing(" not in res.stderr

    def test_non_integer_generator_parse_error(self):
        res = run("retract", "--valuation", "padic:5", "--ideal", "(1/2)",
                  "--ring", "Z")
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error[parse-error]")


# literal strategies, one per kind of slot: mostly well-formed, so that a
# draw reaches past each parser's first check, with fuzzed rational parts
# and loose pieces of every grammar
_PIECES = ("0", "1", "5", "1/2", "-", "/", "*", "^", "@", "<", ">", "(",
           ")", ",", ";", ":", " ", "T", "g", "+", "ball:", "padic:", "R(",
           "9" * 30)
_junk = st.lists(st.sampled_from(_PIECES), max_size=8).map("".join)
_nums = st.one_of(
    st.sampled_from(("0", "1", "2", "5", "-1", "1/2", "1/5", "3/4", "25/7")),
    st.lists(st.sampled_from(("0", "1", "5", "-", "/", "9" * 30)),
             max_size=4).map("".join))
_polys = st.one_of(
    st.sampled_from(("T", "0", "1", "5*T+1", "T^2-5", "(T+1)^3", "1/2*T")),
    st.lists(st.sampled_from(("T", "1", "5", "1/2", "+", "-", "*", "^", "2",
                              "(", ")")), min_size=1, max_size=8).map("".join))
_points = st.one_of(
    st.sampled_from(("classical:1/2", "ball:0,1", "ball:1/3,1/2",
                     "below:1,1/5", "above:0,1/2")),
    st.builds("{}:{}{}".format,
              st.sampled_from(("classical", "ball", "below", "above")),
              _nums, st.one_of(st.just(""), _nums.map(",".__add__))), _junk)
_valuations = st.one_of(st.builds("{}:{}".format, st.sampled_from(
    ("padic", "trivial", "deg")), _nums), _points)
_subsets = st.one_of(st.builds("R({},{};{})".format, _polys, _polys, _polys),
                     _junk)
_ideals = st.builds("({})".format, st.one_of(_nums, _polys))
_groups = st.one_of(st.sampled_from(("trivial", "posq")), st.builds(
    "{}:{}".format, st.sampled_from(("below", "above", "lex")), _nums), _junk)
_elements = st.one_of(
    _nums, st.builds("({},{})".format, _nums, _nums),
    st.builds("{}*g^{}@{}{}".format, _nums, _nums, _nums,
              st.sampled_from(("<", ">", ""))), _junk)
_primes = st.sampled_from(("2", "3", "5", "7", "5", "4"))
_rings = st.sampled_from(("Z", "Q", "F5", "F4", "Q[T]"))
_GROUP_ARITY = {"mul": 2, "pow": 2, "cmp": 2, "inv": 1, "height": 0,
                "subgroups": 0}


def _exits_with_a_code(args):
    res = run(*args)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.exit_code in (0, 1, 2)


_fuzz = settings(max_examples=80)


class TestLiteralFuzz:
    """Any literal ends in an answer or a coded error: exit 0, 1 or 2 and
    no exception but SystemExit."""

    @_fuzz
    @given(st.sampled_from(sorted(_GROUP_ARITY)), _elements, _elements,
           _groups)
    @example("mul", "1*g^1@", "1*g^1@", "below:1/2")
    @example("pow", "padic:*@", "T", "below:1/2")
    def test_group(self, op, a, b, group):
        _exits_with_a_code(("group", op, *(a, b)[:_GROUP_ARITY[op]],
                            "--group", group))

    @_fuzz
    @given(_points, _polys, _primes)
    def test_eval(self, point, f, p):
        _exits_with_a_code(("eval", "--point", point, "--poly", f, "-p", p))

    @_fuzz
    @given(_points, _subsets, _primes)
    def test_member(self, point, subset, p):
        _exits_with_a_code(("member", "--point", point, "--subset", subset,
                            "-p", p))

    @_fuzz
    @given(_valuations, _valuations, _rings, _primes)
    def test_specializes(self, x, y, ring, p):
        _exits_with_a_code(("specializes", x, y, "--ring", ring, "-p", p))

    @_fuzz
    @given(_valuations, _ideals, _rings, _primes)
    def test_retract(self, v, ideal, ring, p):
        _exits_with_a_code(("retract", "--valuation", v, "--ideal", ideal,
                            "--ring", ring, "-p", p))

    @_fuzz
    @given(st.lists(_polys, min_size=1, max_size=3), _primes)
    def test_cover(self, gens, p):
        kind = "laurent" if len(gens) == 1 else "rational"
        _exits_with_a_code(("cover", *gens, "--kind", kind, "-p", p))

    @_fuzz
    @given(_points, _primes)
    def test_classify(self, point, p):
        _exits_with_a_code(("classify", "--point", point, "-p", p))


class TestTypedErrorsExitTwo:
    @pytest.mark.parametrize("args", [
        ("retract", "--valuation", "padic:4", "--ideal", "(5)", "--ring", "Z"),
        ("specializes", "trivial:9", "padic:5", "--ring", "Z"),
        ("specializes", "deg:2", "deg:1/2", "--ring", "Q"),
        ("specializes", "deg:1/0", "deg:1/2", "--ring", "Q"),
        ("group", "height", "--group", "lex:0"),
        ("group", "mul", "2", "1", "--group", "trivial"),
    ])
    def test_parse_error(self, args):
        res = run(*args)
        assert res.exit_code == 2
        assert res.stderr.startswith("error[parse-error]")


class TestVersion:
    def test_in_process(self):
        res = run("--version")
        assert (res.exit_code, res.stdout) == (0, f"main, version {__version__}\n")

    def test_subprocess_from_the_source_tree(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-m", "adicspec.cli", "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith(f", version {__version__}\n")
        assert proc.stderr == ""


class TestDeterminism:
    def test_repeated_runs_identical(self):
        a = run("spv", "--ring", "Z", "--bound", "10").output
        b = run("spv", "--ring", "Z", "--bound", "10").output
        assert a == b


class _StreamRecordingRunner(CliRunner):
    """A CliRunner that keeps a weak reference to each stdout and stderr
    it installs."""

    def __init__(self):
        super().__init__()
        self.streams = []

    @contextlib.contextmanager
    def isolation(self, *args, **kwargs):
        with super().isolation(*args, **kwargs) as captured:
            self.streams += [weakref.ref(sys.stdout), weakref.ref(sys.stderr)]
            yield captured


class TestInProcessStreams:
    def test_no_runner_stream_outlives_its_invocation(self):
        runner = _StreamRecordingRunner()
        for i in range(5):
            for args in (
                    ("eval", "--point", "ball:0,1", "--poly", f"T+{i}", "-p", "5"),
                    ("classify", "--point", "classical:1", "--format", "structured"),
                    ("cover", "T", "2*T", "--kind", "rational"),
                    ("group", "height", "--group", "below:2")):
                runner.invoke(main, list(args))
        gc.collect()
        assert len(runner.streams) == 40
        assert [ref for ref in runner.streams if ref() is not None] == []

    def test_help_leaves_no_stream_behind(self):
        runner = _StreamRecordingRunner()
        for _ in range(5):
            for args in (("--help",), ("eval", "--help"), ("group", "--help")):
                res = runner.invoke(main, list(args))
                assert res.exit_code == 0 and res.stdout.startswith("Usage: ")
        gc.collect()
        assert len(runner.streams) == 30
        assert [ref for ref in runner.streams if ref() is not None] == []

    def test_version_leaves_no_stream_behind(self):
        runner = _StreamRecordingRunner()
        for _ in range(5):
            res = runner.invoke(main, ["--version"])
            assert res.exit_code == 0 and __version__ in res.stdout
        gc.collect()
        assert len(runner.streams) == 10
        assert [ref for ref in runner.streams if ref() is not None] == []

    def test_output_still_reaches_the_runner(self):
        res = run("eval", "--point", "ball:0,1", "--poly", "5*T+1", "-p", "5")
        assert (res.exit_code, res.stdout, res.stderr) == (0, "1\n", "")
        res = run("cover", "T", "2*T", "--kind", "rational")
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error[not-unit-ideal]")
