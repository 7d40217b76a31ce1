import decimal
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibonacci import cli, gcdsum, pisano, sequences, verify
from gibonacci.cli import (
    DECIMAL_STR_CUTOFF,
    build_parser,
    decimal_str,
    jsonable,
    main,
    parse_seed,
    run,
)
from gibonacci.gcdsum import classify
from gibonacci.sequences import Seed

from conftest import naive_fib


def invoke(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def no_digit_limit():
    """Lift CPython's int/str digit limit, so that str can be the oracle."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


def test_term(capsys):
    code, out = invoke(capsys, "term", "--seed", "1,4", "--n", "7")
    assert code == 0 and out.strip() == "60"


def test_sum(capsys):
    code, out = invoke(capsys, "sum", "--seed", "1,4", "--n", "1", "--k", "5")
    assert code == 0 and out.strip() == "55"


def test_gcd_sum_default_seed_is_fibonacci(capsys):
    code, out = invoke(capsys, "gcd-sum", "--k", "20")
    assert code == 0 and "55" in out


def test_gcd_sum_all_methods(capsys):
    code, out = invoke(capsys, "gcd-sum", "--seed", "1,4", "--k", "5", "--method", "all")
    assert code == 0
    assert out.count("11") == 3


@pytest.mark.parametrize("bound,value,partial", [("10", "5", True), ("55", "55", False)])
def test_gcd_sum_lcm_bound_runs_the_scan(capsys, bound, value, partial):
    argv = ["gcd-sum", "--k", "20", "--method", "lcm", "--bound", bound]
    code, out = invoke(capsys, *argv)
    assert code == 0 and out == f"lcm_periods: {value}{' (partial)' if partial else ''}\n"
    code, out = invoke(capsys, *argv, "--format", "json")
    (result,) = json.loads(out)["results"]
    assert code == 0 and (result["value"], result["partial"]) == (value, partial)


def test_gcd_sum_bound_below_one_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["gibonacci", "gcd-sum", "--k", "20", "--method", "lcm",
                                      "--bound", "0"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: bound must be >= 1\n"


@pytest.mark.parametrize("method", ["closed", "brute"])
def test_gcd_sum_bound_is_rejected_where_no_lcm_route_runs(capsys, monkeypatch, method):
    monkeypatch.setattr(sys, "argv", ["gibonacci", "gcd-sum", "--k", "20", "--method", method,
                                      "--bound", "10"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--bound" in captured.err


@pytest.mark.parametrize("argv", [
    ["gcd-sum", "--k", "20", "--method", method, "--windows", "10"]
    for method in ("closed", "brute", "lcm", "all")
] + [["squares", "--k", "10", "--windows", "5"]])
def test_windows_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --windows" in captured.err


def test_gcd_sum_brute_reads_two_windows(capsys, monkeypatch):
    starts = []

    def spy(seed, n, k):
        starts.append(n)
        return sequences.window_sum(seed, n, k)

    monkeypatch.setattr(gcdsum, "window_sum", spy)
    assert invoke(capsys, "gcd-sum", "--k", "20", "--method", "brute") == (0, "brute_force: 55\n")
    assert starts == [1, 2]


def test_gcd_sum_mode_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gcd-sum", "--k", "20", "--method", "lcm", "--mode", "bounded_scan", "--bound", "55"])
    assert exc.value.code == 1


def test_pisano(capsys):
    code, out = invoke(capsys, "pisano", "--m", "10")
    assert code == 0 and out.strip() == "60"


def test_classify_json(capsys):
    code, out = invoke(capsys, "classify", "--seed", "2,1", "--k", "12",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["case_row"] == "row_048"
    assert payload["predicted"] == "40"


def test_classify_inapplicable(capsys):
    code, out = invoke(capsys, "classify", "--seed", "1,4", "--k", "5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted"] == "table-inapplicable"
    assert payload["actual"] == "11"


# k = 10^100 + 1 is 5 (mod 12).  For (1,4), whose value divides 2|d| = 22,
# the period is 3 mod 2 and 5 mod 11, and k is 2 mod 3 and 1 mod 5: the
# value is 1 there too.
ODD_K_PAST_ANY_TERM = str(10**100 + 1)


@pytest.mark.parametrize("seed,predicted", [("0,1", "1"), ("1,4", "table-inapplicable")])
def test_odd_k_past_any_term_size_answers_at_once(capsys, monkeypatch, seed, predicted):
    real = gcdsum.gib_pair

    def reduced_only(s, n, m=None):  # G_{k+1} itself would have about 7e99 bits
        if m is None and abs(n) > 10**7:
            raise AssertionError(f"full-size term at index {n}")
        return real(s, n, m)

    monkeypatch.setattr(gcdsum, "gib_pair", reduced_only)
    start = time.perf_counter()
    code, out = invoke(capsys, "gcd-sum", "--seed", seed, "--k", ODD_K_PAST_ANY_TERM)
    assert code == 0 and out == "closed_gcd: 1\n"
    code, out = invoke(capsys, "classify", "--seed", seed, "--k", ODD_K_PAST_ANY_TERM,
                       "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["k"], payload["residue_mod_12"], payload["predicted"], payload["actual"]) == (
        ODD_K_PAST_ANY_TERM, "5", predicted, "1")
    assert time.perf_counter() - start < 1.0


def test_parity_scan(capsys):
    code, out = invoke(capsys, "parity-scan", "--seed", "1,4", "--m-max", "100")
    assert code == 0 and "(11,5)" in out


def test_max_modulus(capsys):
    code, out = invoke(capsys, "max-modulus", "--k", "60")
    assert code == 0 and "832040" in out


def test_lucas_odd(capsys):
    code, out = invoke(capsys, "lucas-odd", "--seed", "3,7", "--j", "9")
    assert code == 0 and out.strip() == "76"


def test_primes_check(capsys):
    code, out = invoke(capsys, "primes-check", "--seed", "1,4", "--k", "5")
    assert code == 0 and "offending=[]" in out


def test_squares(capsys):
    code, out = invoke(capsys, "squares", "--k", "10")
    assert code == 0 and "empirical=55 windows=3" in out


def test_identities_single(capsys):
    code, out = invoke(capsys, "identities", "--id", "cassini", "--hi", "50")
    assert code == 0 and "cassini: ok" in out


@pytest.mark.parametrize("bounds,points", [
    (("--lo", "-3"), 196), (("--hi", "2"), 169), (("--lo", "-3", "--hi", "2"), 36),
])
def test_identities_bounds_reach_the_shift_family(capsys, bounds, points):
    code, out = invoke(capsys, "identities", "--id", "fib_shift_family", *bounds)
    assert code == 0 and out.strip() == f"fib_shift_family: ok ({points} points)"


def test_identities_empty_range_names_the_family():
    with pytest.raises(ValueError, match=r"identity gib_addition .* 'm': \[1, 0\]"):
        run(["identities", "--hi", "0"])


def test_identities_over_the_point_cap_exits_1_before_any_table(capsys, monkeypatch):
    # 25 seeds times 10^8 grid points: refused before any term is tabulated
    def no_tables(*args):
        raise AssertionError("a term table was built")

    monkeypatch.setattr(sequences, "_tabulate", no_tables)
    monkeypatch.setattr(sys, "argv", ["gibonacci", "identities", "--id", "gib_addition",
                                      "--hi", "10000"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: identity gib_addition asks for 2500000000 points, "
                            f"over the cap of {sequences.IDENTITY_POINT_CAP}\n")


def test_domain_error_exit_code():
    with pytest.raises(ValueError):
        run(["gcd-sum", "--k", "0"])


@pytest.mark.parametrize("argv", [
    ["parity-scan", "--seed", "0,0", "--m-max", "10"],
    ["pisano", "--seed", "0,0", "--m", "1"],
    ["pisano", "--seed", "0,0", "--m", "5"],
])
def test_degenerate_seed_has_no_period(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["gibonacci", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed (0, 0) is degenerate\n"


def test_pisano_over_the_table_cap_is_refused(capsys, monkeypatch):
    m = 10**40  # s = isqrt(6m) + 1 is about 2.4e20 pairs; the walk stops at the cap
    monkeypatch.setattr(sys, "argv", ["gibonacci", "pisano", "--m", str(m)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: period mod {m} exceeds PERIOD_TABLE_CAP = "
                                   f"{pisano.PERIOD_TABLE_CAP} steps")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_term_beyond_the_int_str_digit_limit(capsys, fmt):
    limit = sys.get_int_max_str_digits()
    code, out = invoke(capsys, "term", "--n", "100000", "--format", fmt)
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # restored for the caller
    sys.set_int_max_str_digits(0)
    try:
        value = int(json.loads(out)["value"] if fmt == "json" else out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert value == naive_fib(100000)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_term_prints_in_full_like_str(capsys, no_digit_limit, fmt):
    value = sequences.fib(300000)
    assert value.bit_length() > DECIMAL_STR_CUTOFF  # printed by the split, not by str
    code, out = invoke(capsys, "term", "--n", "300000", "--format", fmt)
    digits = str(value)
    want = digits if fmt == "text" else json.dumps(
        {"n": "300000", "seed": ["0", "1"], "value": digits}, sort_keys=True)
    assert code == 0 and out == want + "\n"


@pytest.mark.parametrize("method", ["brute", "all"])
def test_brute_route_over_the_index_cap_exits_1(capsys, monkeypatch, method):
    def no_sums(*args):
        raise AssertionError("a window sum was started")

    monkeypatch.setattr(gcdsum, "window_sum", no_sums)
    monkeypatch.setattr(sys, "argv", ["gibonacci", "gcd-sum", "--seed", "1,4",
                                      "--k", "100000001", "--method", method])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: brute-force route refuses k = 100000001: "
        f"k is over BRUTE_FORCE_INDEX_CAP = {gcdsum.BRUTE_FORCE_INDEX_CAP}\n")


def test_oversized_argument_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["term", "--n", "9" * 5000])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "<5000 digits>" in err and len(err.encode()) < 300


def test_negative_seed_after_a_space(capsys):
    code, out = invoke(capsys, "term", "--seed", "-1,2", "--n", "3")
    assert code == 0 and out.strip() == "3"


def test_verification_failure_exits_2(capsys, monkeypatch):
    real = pisano._residue_period

    def misreporting(a, b, m):  # period of F mod 55 is 20; report 40
        return 2 * real(a, b, m) if m == 55 else real(a, b, m)

    monkeypatch.setattr(pisano, "_residue_period", misreporting)
    with pytest.raises(AssertionError, match="closed-formula value 55"):
        gcdsum.gcd_sum_lcm(Seed(0, 1), 20)
    monkeypatch.setattr(sys, "argv", ["gibonacci", "gcd-sum", "--k", "20", "--method", "lcm"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lcm_method_at_k1000_equals_the_closed_value(capsys, fmt):
    code, out = invoke(capsys, "gcd-sum", "--k", "1000", "--method", "lcm", "--format", fmt)
    assert code == 0
    value = int(json.loads(out)["results"][0]["value"] if fmt == "json"
                else out.removeprefix("lcm_periods: "))
    assert value == gcdsum.gcd_sum(Seed(0, 1), 1000).value == naive_fib(500)


@pytest.mark.parametrize("argv", [
    ["max-modulus", "--k", "60"],
    ["identities", "--id", "cassini", "--hi", "5"],
    ["verify"],
])
def test_seed_is_a_usage_error_where_it_is_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--seed", "7,3"])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


@pytest.fixture
def two_checks(monkeypatch):
    """Replace the scoreboard with one check that passes and one that fails."""
    monkeypatch.setattr(verify, "CHECKS", [
        (1, "always-passes", lambda: (True, "fine")),
        (2, "always-fails", lambda: (False, "broken")),
    ])
    return verify.CHECKS


def test_verify_text_reports_each_check_and_exits_2_on_a_failure(capsys, two_checks):
    code, out = invoke(capsys, "verify")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 3
    assert re.fullmatch(r"\[PASS\]  1 always-passes +\d+\.\d\ds  fine", lines[0])
    assert re.fullmatch(r"\[FAIL\]  2 always-fails +\d+\.\d\ds  broken", lines[1])
    assert re.fullmatch(r"1/2 checks passed in \d+\.\ds", lines[2])


def test_verify_json_counts_and_exit_codes(capsys, two_checks):
    code, out = invoke(capsys, "verify", "--format", "json")
    assert code == 2
    assert json.loads(out) == {
        "checks": [
            {"criterion": "1", "name": "always-passes", "passed": True, "detail": "fine"},
            {"criterion": "2", "name": "always-fails", "passed": False, "detail": "broken"},
        ],
        "passed": "1",
        "failed": "1",
    }
    del two_checks[1]
    code, out = invoke(capsys, "verify", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] == "1" and json.loads(out)["failed"] == "0"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 1


def test_seed_parsing():
    assert parse_seed("-3,7") == Seed(-3, 7)
    with pytest.raises(ValueError):
        parse_seed("3")
    with pytest.raises(ValueError):
        parse_seed("a,b")


def test_json_integers_are_strings(capsys):
    code, out = invoke(capsys, "gcd-sum", "--k", "240", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    value = payload["results"][0]["value"]
    assert isinstance(value, str)
    assert int(value) > 2**64  # needs the string representation


def test_jsonable_roundtrip():
    c = classify(Seed(2, 1), 12)
    data = jsonable(c)
    assert json.loads(json.dumps(data)) == data


def test_deterministic_output(capsys):
    _, first = invoke(capsys, "classify", "--seed", "0,1", "--k", "24", "--format", "json")
    _, second = invoke(capsys, "classify", "--seed", "0,1", "--k", "24", "--format", "json")
    assert first == second


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("term", "sum", "gcd-sum", "pisano", "classify", "parity-scan",
                 "max-modulus", "lucas-odd", "primes-check", "squares",
                 "identities", "verify"):
        assert name in text


def edge_values(widths, powers_of_ten):
    """0, +-1, +-2^w and +-(2^w - 1) for each width, 10^j - 1 and 10^j for each j."""
    values = [0, 1, -1]
    for w in widths:
        values += [2**w, -(2**w), 2**w - 1, 1 - 2**w]
    for j in powers_of_ten:
        values += [10**j - 1, 10**j]
    return values


def test_decimal_str_equals_str_around_the_cutoff(no_digit_limit):
    # 2^17 bits lie between 10^39456 and 10^39457
    for n in edge_values([DECIMAL_STR_CUTOFF + i for i in (-1, 0, 1)], [39456, 39457, 39458]):
        assert decimal_str(n) == str(n), n.bit_length()


def test_decimal_str_equals_str_around_the_base_case(monkeypatch, no_digit_limit):
    monkeypatch.setattr(cli, "DECIMAL_STR_CUTOFF", 0)  # every value takes the split
    base = cli._DECIMAL_BASE_BITS
    # 2^12 bits lie between 10^1233 and 10^1234
    widths = [base + i for i in (-1, 0, 1)] + [2 * base + i for i in (-1, 0, 1)]
    for n in edge_values(widths, [1, 1233, 1234, 2466, 2467]):
        assert decimal_str(n) == str(n), n.bit_length()


# widths from just below the cutoff (below it, the helper is str itself)
@given(st.integers(DECIMAL_STR_CUTOFF - 64, 2**19), st.integers(0, 2**32), st.booleans())
@settings(max_examples=10, deadline=None)
def test_decimal_str_equals_str_on_random_values(bits, seed, negative):
    n = random.Random(seed).getrandbits(bits)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert decimal_str(-n if negative else n) == str(-n if negative else n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_decimal_str_leaves_the_callers_context():
    with decimal.localcontext() as ctx:
        ctx.prec = 7
        ctx.traps[decimal.Inexact] = False
        before = repr(ctx)
        decimal_str(-(2**DECIMAL_STR_CUTOFF))
        assert decimal.getcontext() is ctx and repr(ctx) == before


def test_importing_the_cli_leaves_decimal_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, gibonacci.cli; print('decimal' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
