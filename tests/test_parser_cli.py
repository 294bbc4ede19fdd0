"""Parser grammar pins and command-line behavior, exit codes included."""

from __future__ import annotations

import io
import json
import random
import sys
import time
from fractions import Fraction as Q

import pytest

from uniqpoly import cli
from uniqpoly.classify import classify, consistency_audit
from uniqpoly.parser import (
    MAX_COEFF_BITS,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    DegreeCapError,
    ParseError,
    format_poly,
    format_rational,
    parse_poly,
)
from uniqpoly.polynomials import Poly, X
from uniqpoly.report import jsonable


# parser

def test_basic_forms():
    assert parse_poly("X^4+X+1") == X**4 + X + 1
    assert parse_poly(" X ^ 2 - 3 ") == X**2 - 3
    assert parse_poly("0") == Poly.zero()
    assert parse_poly("-7") == Poly.of(Q(-7))
    assert parse_poly("X^٣") == X**3  # any decimal digit int() reads


def test_rational_literals():
    assert parse_poly("3/4X^2 + 1/2") == Q(3, 4) * X**2 + Poly.of(Q(1, 2))
    # the slash only makes a literal straight after an integer
    assert parse_poly("1/2X") == Q(1, 2) * X


def test_juxtaposition_multiplies():
    assert parse_poly("2X(X+1)") == 2 * X * (X + 1)
    assert parse_poly("(X-1)(X+1)") == X**2 - 1
    assert parse_poly("2*X*X") == 2 * X**2


def test_sign_stacking():
    assert parse_poly("--X") == X
    assert parse_poly("-X^2 - -3") == -(X**2) + 3
    # the exponent binds before the sign
    assert parse_poly("-X^2") == -(X**2)


def test_power_binds_to_atom():
    assert parse_poly("2X^3") == 2 * X**3
    assert parse_poly("(X+1)^2") == X**2 + 2 * X + 1


def test_error_offsets():
    with pytest.raises(ParseError) as info:
        parse_poly("X^^2")
    assert info.value.offset == 2
    assert "integer exponent" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_poly("X +")
    assert info.value.offset == 3

    with pytest.raises(ParseError) as info:
        parse_poly("X$")
    assert info.value.offset == 1

    # '²' is a digit to str.isdigit but not a decimal that int() reads
    for text, offset in (("X²+1", 1), ("X^²", 2)):
        with pytest.raises(ParseError, match="unexpected character '²'") as info:
            parse_poly(text)
        assert info.value.offset == offset

    with pytest.raises(ParseError) as info:
        parse_poly("(X+1")
    assert ")" in info.value.expected


def test_zero_denominator_rejected():
    with pytest.raises(ParseError) as info:
        parse_poly("1/0 + X")
    assert "zero denominator" in str(info.value)


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_poly("X+1)")


def test_degree_cap():
    with pytest.raises(DegreeCapError) as info:
        parse_poly("X^65", degree_cap=64)
    assert info.value.degree == 65 and info.value.cap == 64
    assert parse_poly("X^64", degree_cap=64).degree == 64


def test_degree_cap_checked_before_a_power_expands():
    with pytest.raises(DegreeCapError) as info:
        parse_poly("(X^2+1)^40", degree_cap=64)
    assert info.value.degree == 80 and info.value.cap == 64
    # an over-cap power is rejected even when later terms would cancel it
    with pytest.raises(DegreeCapError):
        parse_poly("X^65 - X^65 + X", degree_cap=64)
    assert parse_poly("X^65 - X^65 + X") == X


def test_nesting_limit():
    assert parse_poly("(" * 50 + "X^4+X+1" + ")" * 50) == X**4 + X + 1
    deep = "(" * MAX_NESTING + "X" + ")" * MAX_NESTING
    assert parse_poly(deep) == X
    with pytest.raises(ParseError) as info:
        parse_poly("(" + deep + ")")
    # the offset is that of the first parenthesis past the limit
    assert info.value.offset == MAX_NESTING


def test_literal_and_coefficient_bounds():
    with pytest.raises(ParseError, match="longer than") as exc:
        parse_poly("X^2 + " + "7" * (MAX_LITERAL_DIGITS + 1))
    assert exc.value.offset == 6
    assert parse_poly("7" * MAX_LITERAL_DIGITS).coeff(0) > 0
    # the bound holds for numerators, denominators, products and powers
    assert parse_poly(f"X + 2^{MAX_COEFF_BITS - 1}").coeff(0).numerator \
        .bit_length() == MAX_COEFF_BITS
    for text, offset in ((f"X + 2^{MAX_COEFF_BITS}", 5),
                         (f"X + 1/3^{MAX_COEFF_BITS}", 7),
                         ("X + 2^2000 * 2^2000 * 2^2000", 20),
                         ("X^2 + (X^2 + 2^4000*X + 1)^32", 26)):
        with pytest.raises(ParseError, match=f"{MAX_COEFF_BITS} bits") as exc:
            parse_poly(text)
        assert exc.value.offset == offset, text


def test_sums_fail_at_the_first_overflowing_operator():
    # a sum checks only the coefficients its right-hand term touches,
    # which must name the same operator as checking all of them
    for text, offset in (("2^4095*X + 2^4095*X", 9),
                         ("X^3 + 2^4095*X^2 + 1 + 2^4095*X^2", 21),
                         ("2^4095*X - 2^4095 - 2^4095", 18),
                         ("(2^4095*X + 1)*2", 14)):
        with pytest.raises(ParseError, match=f"{MAX_COEFF_BITS} bits") as exc:
            parse_poly(text)
        assert exc.value.offset == offset, text


def test_format_round_trip_pins():
    pins = [
        X**4 + X + 1,
        -(X**2) - X,
        Q(3, 4) * X**2 - Q(1, 2),
        Poly.zero(),
        Poly.of(Q(5)),
        2 * X**7 - X**3,
    ]
    for p in pins:
        assert parse_poly(format_poly(p)) == p
    assert format_poly(X**4 + X + 1) == "X^4 + X + 1"
    assert format_poly(-(X**2) - X) == "-X^2 - X"
    assert format_poly(Poly.zero()) == "0"



def _format_by_fractions(p: Poly) -> str:
    """format_poly as it read the Fraction coefficients, kept as an
    oracle for the integer version."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for e in range(p.degree, -1, -1):
        c = p.coeff(e)
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = format_rational(mag)
        else:
            var = "X" if e == 1 else f"X^{e}"
            body = var if mag == 1 else f"{format_rational(mag)}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


def test_format_poly_matches_the_fraction_reference():
    rng = random.Random(41)
    big = 10**40 + 7

    def coeff():
        k = rng.randint(1, 12)
        return rng.choice([0, 0, 1, -1, Q(1, k), Q(-1, k), Q(k),
                           Q(rng.randint(-big, big), rng.randint(1, big)),
                           Q(rng.randint(-99, 99), rng.randint(1, 99))])

    for _ in range(400):
        cs = [coeff() for _ in range(rng.randint(0, 9))]
        if cs and rng.random() < 0.5:
            cs.append(-Q(rng.randint(1, 9), rng.randint(1, 9)))  # lc < 0
        p = Poly(cs) * rng.choice([1, -1, Q(1, 3), Q(-5, big)])
        assert format_poly(p) == _format_by_fractions(p), p

def test_format_rational():
    assert format_rational(Q(3, 4)) == "3/4"
    assert format_rational(Q(-2)) == "-2"


# command line

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "classify", "X^4+X+1")
    rep = json.loads(out)
    assert code == 0
    assert rep["schema"] == "uniqpoly-report/1"
    assert rep["verdict"]["sup_rational"] == "yes"
    assert rep["verdict"]["sup_meromorphic"] == "no"
    assert rep["audit"]["ok"] is True
    assert rep["timing"]["mode"] == "deterministic"


def test_classify_all_no_is_still_success(capsys):
    code, out, _ = run_cli(capsys, "classify", "X^2")
    rep = json.loads(out)
    assert code == 0
    assert set(rep["verdict"].values()) == {"no"}


def test_classify_parse_error_exit_two(capsys):
    code, out, _ = run_cli(capsys, "classify", "X^^2")
    rep = json.loads(out)
    assert code == 2
    assert rep["error"]["kind"] == "parse"
    assert "offset 2" in rep["error"]["message"]


def test_deep_nesting_exit_two(capsys):
    text = "(" * 3000 + "X^4+X+1" + ")" * 3000
    code, out, _ = run_cli(capsys, "classify", text)
    rep = json.loads(out)
    assert code == 2
    assert rep["error"]["kind"] == "parse"
    assert (f"nested deeper than {MAX_NESTING} at offset {MAX_NESTING}"
            in rep["error"]["message"])


def test_huge_power_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "classify", "X^9999999999999999999")
    assert time.perf_counter() - start < 1.0
    rep = json.loads(out)
    assert code == 2
    assert rep["error"]["message"] == (
        "degree 9999999999999999999 exceeds the cap 64")


@pytest.mark.parametrize("text, offset", [("2^100000*X^2+1", 1),
                                          ("X^3+X+123456789^20000", 15)])
def test_huge_constant_power_exits_two_at_once(capsys, text, offset):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "classify", text)
    assert time.perf_counter() - start < 0.05
    rep = json.loads(out)
    assert code == 2
    assert rep["error"]["message"] == (
        f"coefficient exceeds {MAX_COEFF_BITS} bits at offset {offset}")


def test_classify_out_of_scope_exit_three(capsys):
    code, out, _ = run_cli(capsys, "classify", "2X^5-5X^4+4X^3-X^2")
    rep = json.loads(out)
    assert code == 3
    assert rep["verdict"]["up_rational"] == "out_of_scope"
    assert rep["out_of_scope_reasons"]


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "classify")[0] == 1
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "corollary", "0", "4", "9", "1", "1")[0] == 1


def test_flags_each_command_ignored_are_rejected(capsys):
    assert run_cli(capsys, "forms", "shared", "2,1,1",
                   "--degree-cap", "8")[0] == 1
    assert run_cli(capsys, "selftest", "--fast", "--degree-cap", "8")[0] == 1
    assert run_cli(capsys, "corollary", "0", "5", "2", "1", "1",
                   "--seed", "3")[0] == 1


def test_leading_minus_arguments_after_double_dash(capsys):
    code, out, _ = run_cli(capsys, "classify", "--", "-X^2+1")
    assert code == 0 and json.loads(out)["input"]["text"] == "-X^2+1"
    code, out, _ = run_cli(capsys, "corollary", "--", "0", "5", "2", "-1/2", "3")
    assert code == 0 and json.loads(out)["parameters"]["a"] == "-1/2"
    code, out, _ = run_cli(capsys, "curve", "--c=-1/3", "--", "X^4+X+1")
    assert code == 0 and json.loads(out)["scaled_curve"]["c"] == "-1/3"


@pytest.mark.parametrize("argv", [
    ("curve", "X^3+X", "--c", "1e1000000"),
    ("corollary", "0", "5", "2", "1e1000000", "1"),
    ("corollary", "1e100000", "5", "2", "1", "1"),
    ("corollary", "1e1000000", "5", "2", "1", "1"),
    ("corollary", "0", "5", "2", "1", "1e-1000000"),
    ("corollary", "0", "5", "2", "1", "1/" + "9" * 1300),
])
def test_rational_arguments_over_the_bound_exit_one_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert f"rational exceeds {MAX_COEFF_BITS} bits" in err


def test_rational_arguments_within_the_bound(capsys):
    for text, shown in [("-1/3", "-1/3"), ("0.5", "1/2"), ("2", "2"),
                        ("25e-1", "5/2")]:
        code, out, _ = run_cli(capsys, "curve", f"--c={text}", "X^4+X+1")
        assert code == 0 and json.loads(out)["scaled_curve"]["c"] == shown
    # zero is within the bound whatever its exponent, and reads as zero
    assert (run_cli(capsys, "curve", "--c=0e1000000", "X^4+X+1")
            == run_cli(capsys, "curve", "--c=0", "X^4+X+1"))
    code, out, _ = run_cli(capsys, "corollary", "1e3", "5", "2", "1", "1")
    assert code == 0 and json.loads(out)["parameters"]["alpha"] == "1000"


def test_audit_failure_exit_four(capsys, monkeypatch):
    # force the audit to disagree; the report must still be printed
    def broken_audit(p, verdict=None):
        return {"ok": False, "failures": ["forced"], "slots": {},
                "oracle": {"any_c": None, "c_equals_1": None}, "table": None}

    monkeypatch.setattr(cli, "consistency_audit", broken_audit)
    code, out, _ = run_cli(capsys, "classify", "X^4+X+1")
    rep = json.loads(out)
    assert code == 4
    assert rep["audit"]["ok"] is False


def test_reports_are_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "classify", "X^4+X+1", "--seed", "7")
    _, out2, _ = run_cli(capsys, "classify", "X^4+X+1", "--seed", "7")
    assert out1 == out2


def test_repeated_calls_share_the_parser_and_leak_nothing(capsys):
    # each flag is followed by a call without it, so an option that
    # stayed set from the call before would show in the second output
    runs = [("classify", "--text", "X^4+X+1"),
            ("classify", "--json", "X^4+X+1"),
            ("classify", "--seed", "5", "X^4+X+1"),
            ("classify", "X^4+X+1"),
            ("curve", "--c=-1/3", "--", "X^4+X+1"),
            ("curve", "--", "X^4+X+1"),
            ("classify", "--degree-cap", "3", "X^4+X+1"),
            ("classify", "X^4+X+1")]
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    shared = cli.build_parser()
    assert [run_cli(capsys, *argv) for argv in runs] == fresh
    assert cli.build_parser() is shared
    # --json is the default; every other flag changes the report
    assert len({out for _, out, _ in fresh}) == 6


def test_no_floats_anywhere(capsys):
    _, out, _ = run_cli(capsys, "classify", "1/2X^5 - 3/4X^2")

    def walk(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into a report")
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        if isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(out))


def test_jsonable_rejects_types_no_report_carries():
    # a value of an unexpected type fails loudly instead of printing as
    # its str; a Poly goes into a report through format_poly, never here
    for value in (object(), 0.5, [Poly.of(1, 1)], {"k": (1, object())}):
        with pytest.raises(TypeError):
            jsonable(value)
    assert jsonable({1: (Q(1, 2), None, True, "s")}) == {
        "1": ["1/2", None, True, "s"]}



def test_jsonable_contract():
    class Pair(tuple):
        pass

    class Table(dict):
        pass

    for value in (None, True, False, 0, -7, 2**100, "", "1/2"):
        out = jsonable(value)
        assert out is value
    assert jsonable({1: "a", "b": 2}) == {"1": "a", "b": 2}
    assert jsonable((1, Q(1, 2))) == [1, "1/2"]
    assert jsonable(Pair((Q(3), None))) == ["3", None]
    out = jsonable(Table({2: Pair((Q(-4, 6), True))}))
    assert out == {"2": ["-2/3", True]} and type(out) is dict
    assert jsonable(Q(-3, 4)) == "-3/4" and jsonable(Q(6, 3)) == "2"
    for bad in (0.5, object()):
        with pytest.raises(TypeError):
            jsonable(bad)

def test_text_mode_renders_same_structure(capsys):
    code, out, _ = run_cli(capsys, "classify", "X^4+X+1", "--text")
    assert code == 0
    assert "verdict:" in out and "sup_rational: yes" in out
    assert "rule_trace:" in out


def test_batch_preserves_order_and_worst_code(capsys, tmp_path):
    batch = tmp_path / "polys.txt"
    batch.write_text("X^4+X+1\nX^2\nX^^2\nX^5+X^2\n")
    code, out, _ = run_cli(capsys, "classify", "--batch", str(batch))
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 2
    assert len(lines) == 4
    assert lines[0]["input"]["text"] == "X^4+X+1"
    assert lines[1]["input"]["text"] == "X^2"
    assert lines[2]["error"]["kind"] == "parse"
    assert lines[3]["verdict"]["up_meromorphic"] == "yes"
    # batch output is strictly one report per line
    assert all("\n" not in json.dumps(rep) for rep in lines)


def test_batch_writes_each_line_before_the_next(monkeypatch, tmp_path):
    batch = tmp_path / "polys.txt"
    batch.write_text("X^4+X+1\nX^^2\n\nX^5+X^2\n")
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    written_before = []
    parse = cli.parse_poly

    def parse_after_write(text, degree_cap=None):
        written_before.append(out.getvalue().count("\n"))
        return parse(text, degree_cap=degree_cap)

    monkeypatch.setattr(cli, "parse_poly", parse_after_write)
    assert cli.main(["classify", "--batch", str(batch)]) == 2
    assert written_before == [0, 1, 2]
    assert len(out.getvalue().splitlines()) == 3


def test_batch_reports_any_exception_on_its_line(capsys, monkeypatch, tmp_path):
    batch = tmp_path / "polys.txt"
    batch.write_text("X^4+X+1\nX^5+X^2\nX^3-3X\n")
    run = cli._run_classify

    def fails_on_the_middle_line(text, args):
        if text == "X^5+X^2":
            raise ZeroDivisionError("forced")
        return run(text, args)

    monkeypatch.setattr(cli, "_run_classify", fails_on_the_middle_line)
    code, out, err = run_cli(capsys, "classify", "--batch", str(batch))
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 4
    assert "ZeroDivisionError: forced" in err  # the traceback
    assert len(lines) == 3
    assert lines[0]["input"]["text"] == "X^4+X+1"
    assert lines[1]["error"] == {"kind": "internal",
                                 "message": "ZeroDivisionError: forced"}
    assert lines[2]["input"]["text"] == "X^3-3X"


def test_batch_rejects_text_mode(capsys, tmp_path):
    batch = tmp_path / "polys.txt"
    batch.write_text("X^2\n")
    code, _, err = run_cli(capsys, "classify", "--batch", str(batch), "--text")
    assert code == 1 and "JSON lines" in err


def test_curve_subcommand(capsys):
    code, out, _ = run_cli(capsys, "curve", "X^3-3X", "--c", "2")
    rep = json.loads(out)
    assert code == 0
    assert rep["identities_pass"] is True
    assert all(rep["shared_curve"]["identities"].values())
    assert all(rep["scaled_curve"]["identities"].values())
    scaled = rep["scaled_curve"]["census"]
    assert scaled["available"] is True
    assert scaled["critical_values"] == ["2", "-2"]
    assert scaled["pairing"] == []


def test_curve_computes_critical_structure_once(capsys, monkeypatch):
    calls = []
    original = cli.critical_structure

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(cli, "critical_structure", counted)
    code, out, _ = run_cli(capsys, "curve", "X^3-3X", "--c", "2")
    assert code == 0
    assert json.loads(out)["scaled_curve"]["census"]["available"] is True
    assert len(calls) == 1


def test_curve_pairing_detected(capsys):
    # critical values of X^3 - 3X are -2 and 2; c = -1 pairs them both
    # ways, and the matching lines make the curve split
    code, out, _ = run_cli(capsys, "curve", "X^3-3X", "--c", "-1")
    rep = json.loads(out)
    assert code == 0
    census = rep["scaled_curve"]["census"]
    assert sorted(census["pairing"]) == [[0, 1], [1, 0]]
    assert census["irreducible"] is False


def test_curve_census_abstains_on_zero_critical_value(capsys):
    # P(1) = 0 at the critical point 1, so (1, 1) is singular on the
    # scaled curve but invisible to the pairing census
    code, out, _ = run_cli(capsys, "curve", "X^3-3X+2", "--c", "2")
    rep = json.loads(out)
    assert code == 0
    census = rep["scaled_curve"]["census"]
    assert census["available"] is False
    assert "zero" in census["reason"]


def test_curve_with_a_large_prime_constant_term_is_fast(capsys):
    # P' = 3X^2 + (2^61 - 1); its rational roots used to be searched for
    # among the divisors of the constant term
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "curve", "--c=2", "--",
                           "X^3 + 2305843009213693951*X")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    census = json.loads(out)["scaled_curve"]["census"]
    assert census == {"available": False,
                      "reason": "some critical value is irrational"}


def test_curve_prints_critical_values_past_4300_digits(capsys):
    # the critical point 10^999 / 7 gives a critical value of about
    # 16,000 digits, past CPython's default int-to-str limit
    text = f"1/16*X^16 - 1{'0' * 999}/7*1/15*X^15 + 1"
    code, out, _ = run_cli(capsys, "curve", "--c=2", "--", text)
    assert code == 0
    values = json.loads(out)["scaled_curve"]["census"]["critical_values"]
    assert max(len(v) for v in values) > 4300
    assert sys.get_int_max_str_digits() == 4300


def test_curve_rejects_degenerate_multiplier(capsys):
    code, out, _ = run_cli(capsys, "curve", "X^3-3X", "--c", "1")
    assert code == 2
    assert "avoid 0 and 1" in json.loads(out)["error"]["message"]


def test_curve_without_multiplier_reports_shared_only(capsys):
    code, out, _ = run_cli(capsys, "curve", "X^4+X+1")
    rep = json.loads(out)
    assert code == 0
    assert "scaled_curve" not in rep
    assert rep["shared_curve"]["census"]["genus"] == 1


def test_forms_subcommand(capsys):
    code, out, _ = run_cli(capsys, "forms", "shared", "2,1,1")
    rep = json.loads(out)
    assert code == 0
    assert rep["certificate"]["verdict"] == "brody"
    assert rep["replayed"] is True

    code, out, _ = run_cli(capsys, "forms", "scaled", "3,1",
                           "--pairing", "0:1")
    rep = json.loads(out)
    assert code == 0
    assert rep["certificate"]["verdict"] == "none"


def test_forms_rejects_bad_pairing(capsys):
    code, _, err = run_cli(capsys, "forms", "scaled", "2,1",
                           "--pairing", "0:0")
    assert code == 1 and "pair" in err


def test_forms_is_held_to_the_default_degree_cap(capsys):
    # n = 1 + sum of the multiplicities is P's degree
    code, out, _ = run_cli(capsys, "forms", "shared", ",".join(["1"] * 63))
    assert code == 0
    assert json.loads(out)["configuration"]["curve_degree"] == 63
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "forms", "shared", ",".join(["1"] * 64))
    assert time.perf_counter() - start < 0.05
    assert (code, out) == (1, "")
    assert err == "uniqpoly: degree 65 exceeds the cap 64\n"


def test_corollary_subcommand(capsys):
    code, out, _ = run_cli(capsys, "corollary", "0", "5", "2", "1", "1")
    rep = json.loads(out)
    assert code == 0
    assert rep["match"] is True
    assert rep["table"]["sup_meromorphic"] is True
    assert rep["polynomial"] == "X^5 + X^2 + 1"

    code, out, _ = run_cli(capsys, "corollary", "1/2", "4", "1", "1", "0")
    rep = json.loads(out)
    assert code == 0
    assert rep["table"] == {
        "up_rational": True, "sup_rational": False,
        "up_meromorphic": False, "sup_meromorphic": False,
    }


def test_corollary_honours_the_degree_cap(capsys):
    code, out, err = run_cli(capsys, "corollary", "0", "5", "2", "1", "1",
                             "--degree-cap", "4")
    assert code == 1 and out == ""
    assert "degree 5 exceeds the cap 4" in err
    code, out, err = run_cli(capsys, "corollary", "0", "70", "3", "1", "1")
    assert code == 1 and "degree 70 exceeds the cap 64" in err
    # shifting (X - 1)^n costs about n^3, so the cap is checked first
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "corollary", "1", "1000000000", "2",
                             "1", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "degree 1000000000 exceeds the cap 64" in err


def test_witness_subcommand(capsys):
    code, out, _ = run_cli(capsys, "witness", "X^6+X^3")
    rep = json.loads(out)
    assert code == 0
    assert rep["witnesses"]["any_c"]["order"] == 3
    assert rep["witnesses"]["c_equals_1"]["replayed"] is True

    code, out, _ = run_cli(capsys, "witness", "X^4+X+1")
    rep = json.loads(out)
    assert rep["witnesses"] == {"any_c": None, "c_equals_1": None}

    code, out, _ = run_cli(capsys, "witness", "X+1")
    witnesses = json.loads(out)["witnesses"]
    assert witnesses["c_equals_1"] is None
    assert witnesses["any_c"]["beta"] == "-1"


def test_witness_on_1000_bit_coefficients_is_fast(capsys):
    # the witness equations used to expand P(beta X + gamma) over these
    # coefficients, which took 11 s
    rng = random.Random(0)
    r, s = (rng.getrandbits(1000) | 1 | 1 << 999 for _ in range(2))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "witness", "--",
                           f"1/64*X^64 - {r}/{s}*X^63*1/63 + 1")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out)["witnesses"] == {"any_c": None, "c_equals_1": None}


def test_classify_and_audit_on_1000_bit_coefficients_are_fast():
    # every centered form of this input is a Taylor shift by a 1,000-bit
    # rational, which takes about 12 s by Horner's rule over Fraction
    # polynomials
    rng = random.Random(0)
    r, s = (rng.getrandbits(1000) | 1 | 1 << 999 for _ in range(2))
    p = parse_poly(f"1/64*X^64 - {r}/{s}*X^63*1/63 + 1")
    start = time.perf_counter()
    verdict = classify(p)
    assert consistency_audit(p, verdict)["ok"]
    assert time.perf_counter() - start < 4.0


def test_selftest_fast(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--fast", "--seed", "1")
    rep = json.loads(out)
    assert code == 0
    assert rep["all_ok"] is True
    assert len(rep["criteria"]) == 9
    assert all(c["ok"] for c in rep["criteria"])


def test_selftest_without_numpy_fails_one_criterion(capsys, monkeypatch):
    # numpy comes only with the test extra; a None entry makes it unimportable
    monkeypatch.setitem(sys.modules, "numpy", None)
    code, out, _ = run_cli(capsys, "selftest", "--fast")
    rep = json.loads(out)
    assert code == 4
    assert rep["all_ok"] is False
    assert [c for c in rep["criteria"] if not c["ok"]] == [{
        "name": "separation-float-agreement", "ok": False, "cases": 0,
        "detail": "numpy is not installed"}]
