import decimal
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gibonacci import applications, cli, gcdsum, identities, pisano, sequences, verify
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

from adversarial_runs import ADVERSARIAL_RUNS, OUTPUT_CAP_INDEX
from conftest import certify_period, naive_fib, record_doubling_loop


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


def plant(monkeypatch, name, factor):
    """Multiply the value of one gcdsum route by factor, keeping its flags."""
    route = getattr(gcdsum, name)

    def planted(*args):
        r = route(*args)
        return gcdsum.GcdSumResult(r.seed, r.k, factor * r.value, r.method, r.partial)

    monkeypatch.setattr(gcdsum, name, planted)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, name, factor, wrong", [
    (["--k", "20"], "gcd_sum_bruteforce", 2, "brute_force gives 110"),
    (["--k", "20"], "gcd_sum_lcm", 7, "lcm_periods gives 385"),
    (["--k", "20", "--bound", "60"], "gcd_sum_lcm", 3, "lcm_periods gives 165"),
    (["--k", "20", "--bound", "10"], "gcd_sum_lcm", 7,
     "lcm_periods gives 35, a partial value that does not divide it"),
])
def test_gcd_sum_all_exits_2_when_its_routes_disagree(capsys, monkeypatch, argv, name, factor,
                                                      wrong, fmt):
    plant(monkeypatch, name, factor)
    monkeypatch.setattr(sys, "argv", ["gibonacci", "gcd-sum", *argv, "--method", "all",
                                      "--format", fmt])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: verification failed: gcd-sum routes disagree at k = 20: "
                            f"closed_gcd gives 55, {wrong}\n")


def test_gcd_sum_all_names_long_disagreeing_values_by_bit_length(monkeypatch):
    # k/2 = DECIMAL_CUTOFF, where --method closed alone runs on Decimal
    k = 2 * cli.DECIMAL_CUTOFF
    bits = sequences.fib(k // 2).bit_length()  # the value is F_{k/2} at k = 0 (mod 4)
    plant(monkeypatch, "gcd_sum_bruteforce", 2)
    with pytest.raises(AssertionError) as exc:
        run(["gcd-sum", "--k", str(k), "--method", "all"])
    assert str(exc.value) == (f"gcd-sum routes disagree at k = {k}: closed_gcd gives a "
                              f"{bits}-bit value, brute_force gives a {bits + 1}-bit value")


@pytest.mark.parametrize("seed, bound, out", [
    ("0,1", "10", "closed_gcd: 55\nbrute_force: 55\nlcm_periods: 5 (partial)\n"),
    ("3,6", "10", "closed_gcd: 165\nbrute_force: 165\nlcm_periods: 15 (partial)\n"),
])
def test_gcd_sum_all_passes_a_partial_value_that_divides(capsys, seed, bound, out):
    assert invoke(capsys, "gcd-sum", "--seed", seed, "--k", "20", "--method", "all",
                  "--bound", bound) == (0, out)


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
    def reduced_only(j, m):  # G_{k+1} itself would have about 7e99 bits
        if m is None and j > 10**7:
            raise AssertionError(f"full-size term at index {j}")

    # the guard sits on the doubling loop itself, so it fires on any route there
    record_doubling_loop(monkeypatch, reduced_only)
    with pytest.raises(AssertionError, match="full-size term"):
        gcdsum.gcd_sum(Seed(0, 1), 2 * 10**7 + 2)
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


@pytest.mark.parametrize("argv", [
    ["parity-scan", "--seed", "1,4", "--m-max", "41"],
    ["gcd-sum", "--k", "20", "--method", "lcm", "--bound", "41"],
    ["gcd-sum", "--k", "20", "--method", "all", "--bound", "41"],
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_scan_over_the_modulus_cap_exits_1(capsys, monkeypatch, argv, fmt):
    def no_kernel(*args):
        raise AssertionError("the period kernel was called")

    monkeypatch.setattr(pisano, "_order", no_kernel)
    monkeypatch.setattr(pisano, "SCAN_MODULUS_CAP", 40)
    monkeypatch.setattr(sys, "argv", ["gibonacci", *argv, "--format", fmt])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: scan of every modulus up to 41 refused: "
                            "over SCAN_MODULUS_CAP = 40\n")


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
    assert code == 0 and out == "value=55 predicted=55\n"


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


def test_identities_without_id_checks_every_cap_before_any_table(monkeypatch):
    # the Fibonacci-only families ahead of gib_addition must not run first
    def no_tables(*args):
        raise AssertionError("a term table was built")

    monkeypatch.setattr(identities, "_tabulate", no_tables)
    with pytest.raises(ValueError, match=r"^identity gib_addition asks for 10000000000 points, "
                                         rf"over the cap of {identities.IDENTITY_POINT_CAP}$"):
        run(["identities", "--hi", "20000"])


def test_identities_over_the_point_cap_exits_1_before_any_table(capsys, monkeypatch):
    # 25 seeds times 10^8 grid points: refused before any term is tabulated
    def no_tables(*args):
        raise AssertionError("a term table was built")

    monkeypatch.setattr(identities, "_tabulate", no_tables)
    monkeypatch.setattr(sys, "argv", ["gibonacci", "identities", "--id", "gib_addition",
                                      "--hi", "10000"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: identity gib_addition asks for 2500000000 points, "
                            f"over the cap of {identities.IDENTITY_POINT_CAP}\n")


def test_identities_over_the_table_bit_cap_exits_1_before_any_table(capsys, monkeypatch):
    # 400,001 points, under the points cap, but an F table of about 55.5
    # billion bits (about 20 GB peak RSS had it run)
    def no_tables(*args):
        raise AssertionError("a term table was built")

    monkeypatch.setattr(identities, "_tabulate", no_tables)
    monkeypatch.setattr(sys, "argv", ["gibonacci", "identities", "--id", "lucas_from_fib",
                                      "--hi", "400000"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: identity lucas_from_fib asks for term tables of about "
                            "55536416521 bits, over the cap of "
                            f"{identities.IDENTITY_TABLE_BIT_CAP}\n")


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


def test_pisano_of_a_smooth_41_digit_modulus(capsys):
    # 10^40 = 2^40 5^40 factors at once: lcm(3 * 2^39, 20 * 5^39)
    code, out = invoke(capsys, "pisano", "--m", str(10**40))
    assert code == 0 and out == f"{15 * 10**39}\n"


def test_pisano_of_a_13_digit_prime_is_certified(capsys):
    m = 10**12 + 39
    code, out = invoke(capsys, "pisano", "--m", str(m), "--format", "json")
    assert code == 0
    record = json.loads(out)["record"]
    assert record["modulus"] == str(m)
    certify_period(Seed(0, 1), m, int(record["period"]))


def test_pisano_past_the_trial_division_bound_exits_1_before_order_finding(capsys, monkeypatch):
    bound = pisano.TRIAL_DIVISION_BOUND
    p = sympy.nextprime(bound)
    m = p * sympy.nextprime(p)

    def no_order(*args):
        raise AssertionError(f"ran order finding at {args}")

    monkeypatch.setattr(pisano, "_order", no_order)
    chains = record_doubling_loop(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["gibonacci", "pisano", "--m", str(m)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: period mod {m} refused: trial division up to "
                            f"TRIAL_DIVISION_BOUND = {bound} does not factor it, and the period "
                            f"exceeds PERIOD_TABLE_CAP = {pisano.PERIOD_TABLE_CAP} steps\n")
    # the only chain is the probe's M^s, s = isqrt(PERIOD_TABLE_CAP - 1) + 1
    assert chains == [(math.isqrt(pisano.PERIOD_TABLE_CAP - 1) + 1, m)]


def test_pisano_of_an_unfactored_modulus_with_a_short_period(capsys):
    # F_83, a prime above 2^56, has Fibonacci period 4 * 83
    m = 99194853094755497
    assert sympy.isprime(m) and m > pisano.TRIAL_DIVISION_BOUND**2
    assert invoke(capsys, "pisano", "--m", str(m)) == (0, "332\n")


def test_pisano_over_the_modulus_bit_cap_exits_1_at_once(capsys, monkeypatch):
    m = 10**3999 + 7  # 13,285 bits

    def no_work(*args):
        raise AssertionError(f"started work at {args}")

    for name in ("trial_division", "fib_pair", "_shift_steps"):
        monkeypatch.setattr(pisano, name, no_work)
    monkeypatch.setattr(sys, "argv", ["gibonacci", "pisano", "--m", str(m)])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: period mod a {m.bit_length()}-bit modulus refused: over "
                            f"MODULUS_BIT_CAP = {pisano.MODULUS_BIT_CAP} bits\n")


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
    assert 300000 >= cli.DECIMAL_CUTOFF  # computed and printed by decimal
    code, out = invoke(capsys, "term", "--n", "300000", "--format", fmt)
    digits = str(value)
    want = digits if fmt == "text" else json.dumps(
        {"n": "300000", "seed": ["0", "1"], "value": digits}, sort_keys=True)
    assert code == 0 and out == want + "\n"


CUTOFF = cli.DECIMAL_CUTOFF  # on the chain index: |n| for term, n + k + 1 for sum, k/2


def both_paths(capsys, monkeypatch, argv):
    """The CLI's output for argv as it runs, with the number types its
    doubling chains ran on, and its output with every Decimal path switched
    off: the int path, which is the oracle."""
    zeros = []
    record_doubling_loop(monkeypatch, zeros=zeros)
    got = invoke(capsys, *argv)
    ran_on = set(zeros)
    monkeypatch.setattr(cli, "DECIMAL_CUTOFF", math.inf)
    want = invoke(capsys, *argv)
    return got, ran_on, want


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("seed, n", [
    ("0,1", CUTOFF - 1), ("0,1", CUTOFF), ("0,1", CUTOFF + 1),
    ("-1,2", CUTOFF), ("5,-8", -CUTOFF), ("-13,-21", -CUTOFF - 1),
    ("0,1", 10**6), ("2,1", -(10**6)), ("-3,7", -(10**6) - 1),
])
def test_term_on_decimal_prints_what_the_int_path_prints(capsys, monkeypatch, seed, n, fmt):
    got, ran_on, want = both_paths(capsys, monkeypatch,
                                   ["term", f"--seed={seed}", "--n", str(n), "--format", fmt])
    assert got == want and want[0] == 0
    assert ran_on == ({"Decimal"} if abs(n) >= CUTOFF else {"int"})


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("seed, n, k", [  # the chains read indices up to n + k + 1
    ("0,1", 1, CUTOFF - 3), ("-1,2", 1, CUTOFF - 2), ("7,-4", 40, CUTOFF - 40),
    ("-5,-8", CUTOFF, 1), ("3,-11", 5 * 10**5, 5 * 10**5),
])
def test_sum_on_decimal_prints_what_the_int_path_prints(capsys, monkeypatch, seed, n, k, fmt):
    argv = ["sum", f"--seed={seed}", "--n", str(n), "--k", str(k), "--format", fmt]
    got, ran_on, want = both_paths(capsys, monkeypatch, argv)
    assert got == want and want[0] == 0
    assert ran_on == ({"Decimal"} if n + k + 1 >= CUTOFF else {"int"})


@pytest.mark.parametrize("rounding", [decimal.ROUND_HALF_EVEN, decimal.ROUND_FLOOR])
def test_a_zero_on_decimal_prints_0_and_leaves_the_callers_context(capsys, monkeypatch, rounding):
    # G_m = F_m F_{m-1} - F_{m-1} F_m = 0, and the one-term window G_m is
    # G_{m+2} - G_{m+1}, two equal terms: under ROUND_FLOOR, x - x is -0
    monkeypatch.setattr(cli, "DECIMAL_CUTOFF", 0)
    m = 30
    seed = f"--seed={sequences.fib(m)},{-sequences.fib(m - 1)}"
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = 7, rounding
        ctx.traps[decimal.Inexact] = False
        before = repr(ctx)
        for argv in (["term", "--n", str(m)], ["sum", "--n", str(m), "--k", "1"]):
            assert invoke(capsys, *argv, seed) == (0, "0\n")
            code, out = invoke(capsys, *argv, seed, "--format", "json")
            assert code == 0 and json.loads(out)["value"] == "0"
        assert decimal.getcontext() is ctx and repr(ctx) == before


@pytest.mark.parametrize("argv, size", [
    (["term", "--n", "100000000"], "about 69420000"),
    (["term", "--n", "-96670794", "--format", "json"], "about 67108865"),
    (["sum", "--n", "1", "--k", "96670792"], "about 67108865"),
    (["sum", "--n", "-1" + "0" * 30, "--k", "1"], None),  # the window is refused first
    (["term", "--n", "9" * 40], "over 2^132"),
])
def test_output_over_the_bit_cap_exits_1_before_any_chain(capsys, monkeypatch, argv, size):
    chains = record_doubling_loop(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["gibonacci", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1 and chains == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: window start n must be >= 1\n" if size is None else
                            f"error: output of {size} bits refused: over "
                            f"OUTPUT_BIT_CAP = {cli.OUTPUT_BIT_CAP} bits\n")


def test_output_at_the_bit_cap_is_computed(capsys, monkeypatch):
    # 6942 bits is read at |n| = 10001 and 10000 (0.6942 |n|, rounded down)
    monkeypatch.setattr(cli, "OUTPUT_BIT_CAP", 6942)
    chains = record_doubling_loop(monkeypatch)
    assert invoke(capsys, "term", "--n", "-10001")[1] == decimal_str(naive_fib(-10001)) + "\n"
    assert invoke(capsys, "sum", "--n", "1", "--k", "9999")[1] == decimal_str(
        naive_fib(10001) - 1) + "\n"
    # G_{-10001} reads the chain at 10002 // 2, G_{10001} - G_2 at 10001 // 2 and 2 // 2
    assert [j for j, _ in chains] == [5001, 5000, 1]
    for argv in (["term", "--n", "10002"], ["sum", "--n", "1", "--k", "10000"]):
        with pytest.raises(ValueError, match="output of about 6943 bits refused"):
            run(argv)
    assert len(chains) == 3


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("n, k, message", [(10**9, 0, "window length k must be >= 1"),
                                           (0, 10**9, "window start n must be >= 1")])
def test_sum_window_errors_keep_their_text_past_the_cap(capsys, monkeypatch, n, k, message, fmt):
    monkeypatch.setattr(sys, "argv", ["gibonacci", "sum", "--n", str(n), "--k", str(k),
                                      "--format", fmt])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1 and capsys.readouterr().err == f"error: {message}\n"


BIG_SEED = f"{2**200 + 1},3"  # past the seed guard below k = 4 * 201^2
GUARD_K = 4 * 201**2

# (seed, k, whether gcd-sum and classify run on Decimal): j = k/2 of both
# parities on both sides of the cutoff, odd k, negative entries, a seed on
# both sides of the guard, and (2,1), whose difference (2 G_1 - G_0) F_j is
# 0 at even j
GCD_CASES = [
    ("0,1", 2 * CUTOFF - 2, False), ("0,1", 2 * CUTOFF, True), ("0,1", 2 * CUTOFF + 2, True),
    ("0,1", 2 * CUTOFF + 1, False), ("-7,3", 2 * CUTOFF + 2, True), ("-5,-8", 2 * CUTOFF, True),
    ("2,1", 2 * CUTOFF, True), ("2,1", 2 * CUTOFF + 2, True), (BIG_SEED, 2 * CUTOFF, False),
    (BIG_SEED, GUARD_K - 2, False), (BIG_SEED, GUARD_K, True),
    ("0,1", 10**5 - 2, False), ("0,1", 10**5, False), ("0,1", 10**5 + 2, False),
    ("0,1", 10**5 + 1, False), ("-7,3", 10**5 + 2, False), ("-5,-8", 10**5, False),
    ("2,1", 10**5, False), ("2,1", 10**5 + 2, False), (BIG_SEED, 10**5, False),
    ("1,-4", 3 * 10**5 + 2, True),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("seed, k, on_decimal", GCD_CASES)
@pytest.mark.parametrize("command", [["gcd-sum"], ["gcd-sum", "--method", "all"], ["classify"]])
def test_gcd_values_on_decimal_print_what_the_int_path_prints(capsys, monkeypatch, command,
                                                              seed, k, on_decimal, fmt):
    # only the closed route, alone, runs on Decimal: --method all checks on ints
    argv = [*command, f"--seed={seed}", "--k", str(k), "--format", fmt]
    got, ran_on, want = both_paths(capsys, monkeypatch, argv)
    assert got == want and want[0] == 0
    assert ran_on == {"int"} if "all" in command else ("Decimal" in ran_on) == on_decimal


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("seed, j, on_decimal", [
    ("0,1", CUTOFF - 1, False), ("0,1", CUTOFF + 1, True),
    ("-7,3", CUTOFF + 1, True), ("2,1", CUTOFF + 3, True),
    (BIG_SEED, CUTOFF + 1, False), ("-3,-10", 500001, True),
    ("0,1", 49999, False), ("0,1", 50001, False), ("-7,3", 50001, False),
    ("2,1", 50003, False), (BIG_SEED, 50001, False),
])
def test_lucas_odd_on_decimal_prints_what_the_int_path_prints(capsys, monkeypatch, seed, j,
                                                              on_decimal, fmt):
    argv = ["lucas-odd", f"--seed={seed}", "--j", str(j), "--format", fmt]
    got, ran_on, want = both_paths(capsys, monkeypatch, argv)
    assert got == want and want[0] == 0
    assert ran_on == ({"Decimal"} if on_decimal else {"int"})


# One past the cap: 0.6942 * 96670794 is 67108865.2 bits, read at index k/2
# for gcd-sum and classify and at j for lucas-odd.  The k of over 4300 digits
# reach the command because the test lifts CPython's digit limit, as a
# library caller may; under the limit they are usage errors
# (test_oversized_argument_is_a_usage_error).
PAST_CAP_K = str(2 * 96670794)


@pytest.mark.parametrize("argv, size", [
    (["lucas-odd", "--j", "9" * 100], "over 2^331"),
    (["lucas-odd", "--seed", "1,4", "--j", "96670795"], "about 67108865"),
    (["lucas-odd", "--j", "1" * 4301, "--format", "json"], "over 2^14283"),
    (["gcd-sum", "--k", PAST_CAP_K], "about 67108865"),
    (["gcd-sum", "--seed", "3,6", "--k", PAST_CAP_K, "--method", "brute"], "about 67108865"),
    (["gcd-sum", "--k", PAST_CAP_K, "--method", "lcm", "--bound", "10"], "about 67108865"),
    (["gcd-sum", "--k", PAST_CAP_K, "--method", "all", "--format", "json"], "about 67108865"),
    (["gcd-sum", "--k", "2" + "0" * 4300], "over 2^14283"),
    (["classify", "--seed", "2,1", "--k", PAST_CAP_K], "about 67108865"),
    (["classify", "--k", "4" + "0" * 4300, "--format", "json"], "over 2^14284"),
])
def test_gcd_values_over_the_bit_cap_exit_1_before_any_chain(capsys, monkeypatch,
                                                             no_digit_limit, argv, size):
    def no_chain(j, m):  # fails fast, where a chain this long would run for hours
        raise AssertionError(f"started a chain at index {j}")

    chains = record_doubling_loop(monkeypatch, no_chain)
    monkeypatch.setattr(sys, "argv", ["gibonacci", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1 and chains == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: output of {size} bits refused: over "
                            f"OUTPUT_BIT_CAP = {cli.OUTPUT_BIT_CAP} bits\n")


def test_gcd_values_at_the_bit_cap_are_computed(capsys, monkeypatch):
    # 6942 bits is read at index 10001 (0.6942 * 10001, rounded down)
    monkeypatch.setattr(cli, "OUTPUT_BIT_CAP", 6942)
    chains = record_doubling_loop(monkeypatch)
    assert invoke(capsys, "gcd-sum", "--k", "20002") == (
        0, f"closed_gcd: {decimal_str(naive_fib(10000) + naive_fib(10002))}\n")  # L_10001
    assert invoke(capsys, "lucas-odd", "--j", "10001")[1] == decimal_str(
        sequences.lucas(10001)) + "\n"
    assert json.loads(invoke(capsys, "classify", "--k", "20002", "--format", "json")[1])[
        "predicted"] == decimal_str(sequences.lucas(10001))
    assert invoke(capsys, "gcd-sum", "--k", str(10**9 + 1)) == (0, "closed_gcd: 1\n")  # odd k
    chains.clear()
    for argv, bits in ((["gcd-sum", "--k", "20004"], 6943), (["lucas-odd", "--j", "10003"], 6944),
                       (["classify", "--k", "20004"], 6943)):
        with pytest.raises(ValueError, match=f"output of about {bits} bits refused"):
            run(argv)
    assert chains == []


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


def test_adversarial_runs_step_past_each_cap_by_one():
    cli._check_output_bits(OUTPUT_CAP_INDEX - 1)
    with pytest.raises(ValueError):
        cli._check_output_bits(OUTPUT_CAP_INDEX)
    ranges = identities.default_identity_ranges(identities.Identity.GIB_PARTIAL_SUM, hi=41574)
    identities.check_identity_request(identities.Identity.GIB_PARTIAL_SUM, ranges)


@pytest.mark.parametrize("argv,code", ADVERSARIAL_RUNS,
                         ids=[" ".join(a if len(a) < 20 else f"<{len(a)} digits>" for a in argv)
                              for argv, _ in ADVERSARIAL_RUNS])
def test_adversarial_inputs_exit_cleanly_and_refusals_start_no_chain(capsys, monkeypatch,
                                                                    argv, code):
    def no_chain(j, m):
        raise RuntimeError(f"a refused input started a chain at {j}")

    chains = record_doubling_loop(monkeypatch, guard=no_chain if code else None)
    monkeypatch.setattr(sys, "argv", ["gibonacci", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and chains == []
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert len(captured.err.encode()) <= 200
    else:
        assert captured.err == ""


N_5000 = 10**5000  # 16,610 bits, past CPython's default int/str limit of 4300 digits
F = Seed(0, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: gcdsum.gcd_sum_bruteforce(F, N_5000),
     "brute-force route refuses k = a 16610-bit value: k is over BRUTE_FORCE_INDEX_CAP"),
    (lambda: gcdsum.gcd_sum_lcm(F, N_5000),
     "lcm route refuses k = a 16610-bit value: k is over LCM_ROUTE_INDEX_CAP"),
    (lambda: applications.max_modulus_for_period(2 * N_5000),
     "max-modulus refuses k = a 16611-bit value: k is over LCM_ROUTE_INDEX_CAP"),
    (lambda: applications.squares_gcd(F, N_5000),
     "squares refuses k = a 16610-bit value: k is over BRUTE_FORCE_INDEX_CAP"),
    (lambda: pisano.parity_scan(Seed(1, 4), N_5000),
     "scan of every modulus up to a 16610-bit value refused: over SCAN_MODULUS_CAP"),
    (lambda: pisano.period_table(Seed(1, 4), N_5000),
     "scan of every modulus up to a 16610-bit value refused: over SCAN_MODULUS_CAP"),
    (lambda: gcdsum.gcd_sum_lcm(F, 12, bound=N_5000),
     "scan of every modulus up to a 16610-bit value refused: over SCAN_MODULUS_CAP"),
    (lambda: pisano.pisano_period(Seed(N_5000, N_5000), N_5000),
     "seed (a 16610-bit entry,a 16610-bit entry) is congruent to (0, 0) mod a 16610-bit "
     "modulus; period undefined"),
    (lambda: pisano.equivalent_up_to_shift(Seed(N_5000, N_5000), F, N_5000),
     "seed (a 16610-bit entry,a 16610-bit entry) is degenerate mod a 16610-bit modulus"),
    (lambda: gcdsum.classify(Seed(2 * N_5000, 4 * N_5000), 12),
     "seed (a 16611-bit entry, a 16612-bit entry) must have coprime entries"),
    (lambda: identities.verify_identity(identities.Identity.CASSINI, {"n": (N_5000, 3)}),
     "identity cassini has an empty range for 'n': [a 16610-bit value, 3]"),
    (lambda: identities.verify_identity(identities.Identity.CASSINI,
                                        {"n": (10**4300, 10**4300 + 5)}),
     "identity cassini asks for term tables of about a 14287-bit number of bits, over the cap"),
], ids=["brute", "lcm", "max-modulus", "squares", "parity-scan", "period-table", "lcm-bound",
        "pisano", "shift", "classify", "empty-range", "table-bits"])
def test_library_refusals_name_huge_numbers_by_bit_length(call, message):
    # the library runs under the caller's digit limit, not the CLI's lifted one
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as exc:
            call()
    finally:
        sys.set_int_max_str_digits(limit)
    text = str(exc.value)
    assert text.startswith(message)
    assert "\n" not in text and len(text.encode()) <= 200


def test_oversized_argument_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["term", "--n", "9" * 5000])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "<5000 digits>" in err and len(err.encode()) < 300


def test_negative_seed_after_a_space(capsys):
    code, out = invoke(capsys, "term", "--seed", "-1,2", "--n", "3")
    assert code == 0 and out.strip() == "3"


def overcounting(monkeypatch):
    """Plant the even-k closed value, which gcd_sum and classify read, at
    twice its value.  Where the lcm route checks an odd value v, the
    period mod 2v is the lcm of 3 and the period mod v, so it does not
    divide the k (20, 50000) that 3 does not divide."""
    real = gcdsum._balanced_gcd
    monkeypatch.setattr(gcdsum, "_balanced_gcd",
                        lambda seed, j, f, f_next: 2 * real(seed, j, f, f_next))


def test_verification_failure_exits_2(capsys, monkeypatch):
    # the period of F mod 110 is 60, which does not divide k = 20
    overcounting(monkeypatch)
    message = "period of residue pair (0, 1) mod 110 does not divide the multiple 20"
    with pytest.raises(AssertionError, match=rf"^{re.escape(message)}$"):
        gcdsum.gcd_sum_lcm(Seed(0, 1), 20)
    monkeypatch.setattr(sys, "argv", ["gibonacci", "gcd-sum", "--k", "20", "--method", "lcm"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: verification failed: {message}\n"


def test_must_hold_failures_raise_assertion_error_under_the_digit_limit(capsys, monkeypatch):
    # every failure names a value past 4300 digits by its bit length, so none
    # turns into the int/str digit limit's ValueError in library mode
    assert sys.get_int_max_str_digits() == 4300
    real = applications.period_from_multiple
    monkeypatch.setattr(applications, "period_from_multiple",
                        lambda seed, m, n, primes: real(seed, m, n, primes) // 2)
    with pytest.raises(AssertionError, match=r"^period of modulus a \d+-bit modulus is 30000, "
                                             r"expected 60000$"):
        applications.max_modulus_for_period(60000, exhaustive=True)
    monkeypatch.setattr(applications, "period_from_multiple", real)
    # p - 1 is Wall's multiple only at p = +-1 (mod 5)
    monkeypatch.setattr(pisano, "_wall_multiple",
                        lambda p: (p - 1, {p, *sympy.primefactors(p - 1)}))
    with pytest.raises(AssertionError, match=r"^period of residue pair \(1, 0\) mod 2 does not"):
        pisano.period_table(Seed(1, 4), 10)
    monkeypatch.undo()
    overcounting(monkeypatch)
    with pytest.raises(AssertionError, match=r"^every modulus with period dividing 60000 divides "
                                             r"a \d+-bit modulus, expected a \d+-bit modulus$"):
        applications.max_modulus_for_period(60000, exhaustive=True)
    with pytest.raises(AssertionError, match=r"^period of a residue pair mod a \d+-bit modulus "
                                             r"does not divide the multiple 50000$"):
        gcdsum.gcd_sum_lcm(Seed(1, 4), 50000)
    monkeypatch.setattr(sys, "argv", ["gibonacci", "gcd-sum", "--seed", "1,4", "--k", "50000",
                                      "--method", "lcm"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: verification failed: period of a residue pair mod a ")
    assert captured.err.count("\n") == 1 and len(captured.err) < 200


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


def test_verify_text_total_is_the_wall_time_of_the_run(capsys, monkeypatch):
    # the checks overlap in forked children, so their times sum to more than the run's
    monkeypatch.setattr(verify, "run_all", lambda: [
        verify.CheckResult(1, "first", True, "fine", 5.0),
        verify.CheckResult(2, "second", True, "fine", 5.0)])
    clock = iter([100.0, 102.5])
    monkeypatch.setattr(time, "perf_counter", lambda: next(clock))
    code, out = invoke(capsys, "verify")
    assert code == 0
    assert out.splitlines()[-1] == "2/2 checks passed in 2.5s"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, message", [
    (["no-such-command"], "argument command: invalid choice: 'no-such-command' (choose from "),
    (["gcd-sum", "--k", "x"], "argument --k: invalid int value: 'x'\n"),
    (["gcd-sum"], "the following arguments are required: --k\n"),
    (["gcd-sum", "--k", "1" * 4301], "argument --k: invalid int value: '<4301 digits>'\n"),
    (["max-modulus", "--k", "60", "--seed", "7,3"], "unrecognized arguments: --seed 7,3\n"),
])
def test_a_usage_error_is_one_stderr_line(capsys, monkeypatch, argv, message):
    assert sys.get_int_max_str_digits() == 4300  # so a 4301-digit --k is not an int
    monkeypatch.setattr(sys, "argv", ["gibonacci", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


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


def test_jsonable_refuses_an_unknown_type():
    with pytest.raises(TypeError, match=re.escape("cannot serialize <class 'object'>")):
        jsonable(object())


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


def test_the_parser_is_built_once_for_many_runs(capsys):
    build_parser.cache_clear()
    for argv in (["term", "--n", "7"], ["pisano", "--m", "10"], ["gcd-sum", "--k", "12"]):
        assert invoke(capsys, *argv)[0] == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_a_reused_parser_carries_nothing_from_one_call_to_the_next(capsys):
    argv = ["gcd-sum", "--method", "lcm", "--k", "12"]
    build_parser.cache_clear()
    fresh = invoke(capsys, *argv)
    assert fresh == (0, "lcm_periods: 8\n")
    with pytest.raises(SystemExit) as exc:  # a usage error, then a valid call
        run(["gcd-sum", "--seed", "1,4", "--k", "x", "--format", "json"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert invoke(capsys, *argv) == fresh
    # options set by one call fall back to their defaults in the next
    invoke(capsys, "gcd-sum", "--seed", "1,4", "--k", "5", "--method", "all", "--bound", "11",
           "--format", "json")
    assert invoke(capsys, *argv) == fresh
    assert build_parser.cache_info().misses == 1


def test_importing_the_cli_builds_no_parser():
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import gibonacci.cli as c; print(c.build_parser.cache_info().misses)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True)
    assert out.stdout == "0\n"


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
    # and so do commands whose chains stay below the cutoff, in either format,
    # and the brute and lcm routes past it: only the closed route reads a zero
    src = Path(cli.__file__).resolve().parents[1]
    script = "\n".join([
        "import sys, gibonacci.cli as cli",
        "loaded = ['decimal' in sys.modules]",
        "for argv in (['term', '--n', '10', '--format', 'json'],",
        "             ['gcd-sum', '--k', '12', '--format', 'json'], ['classify', '--k', '12'],",
        "             ['gcd-sum', '--method', 'brute', '--k', '140000'],",
        "             ['gcd-sum', '--method', 'lcm', '--k', '140000', '--format', 'json']):",
        "    assert cli.run(argv) == 0",
        "    loaded.append('decimal' in sys.modules)",
        "print(loaded)",
    ])
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[False, False, False, False, False, False]"
