"""Per-kernel timings of gibonacci against another checkout, written to a JSON file.

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    python scripts/bench.py --against /tmp/parent --out BENCH_30.json

Times every case on the gibonacci under DIR/src (``runs.before``) and on the
one under ``src/`` next to this script (``runs.after``).  Both sides' bytecode
is compiled afresh before the first case, so a stale ``__pycache__`` (which
a run under PYTHONDONTWRITEBYTECODE=1 would recompile in every process)
slows neither side's first call.  Each run of a case
is one fresh process that imports one of the two, builds the case's inputs
and times calls of the case with ``time.perf_counter``: the first call
alone (``first_ms``, which pays every one-off cost, such as building the
CLI parser or importing ``decimal``), then further calls one by one until
they fill at least BATCH_MS, at least one of them, whose median is the
warm time (``warm_ms``).  The runs alternate between the two sides, and
which side goes first alternates too, so a drift in machine speed falls on
both.  Each side keeps the median of its REPEAT runs, for each of the two
fields: a best of a few still moved untouched cases by a third on a VM
whose speed drifts.  Next to each median it writes that side's first and
third quartiles (``first_ms_q1``, ``first_ms_q3``, and the same for
``warm_ms``), and ``after_wins`` counts, for each case and field, the
alternating pairs of runs (the i-th run of each side) in which the after
side was faster: a gain is read where the wins are many and the medians
lie apart by more than the quartiles' spread.  The cases are this
script's own, so both sides run the same calls.  A case that one side
refuses with a ValueError (an input past that side's budget) reads null
there.  Timings are for reading, not for gating: nothing in the test
suite reads this file.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable

SRC = Path(__file__).resolve().parent.parent / "src"
REPEAT = 7  # runs per case and side; the median is kept
BATCH_MS = 50.0  # the warm calls after the first are timed until they fill this much

# A run: put the side's src first on the path, load this script without
# running main, and print the named case's times as JSON.  The script's
# top level imports only modules that the interpreter loads at start-up,
# and json is imported after the case, so a case's first call pays every
# import that a fresh process would; the parent-side functions (``main``,
# ``run_in``, ``spread``) import the rest.
CHILD = ("import runpy, sys; sys.path.insert(0, sys.argv[1]); "
         "times = runpy.run_path(sys.argv[2])['time_once'](sys.argv[3]); "
         "import json; print(json.dumps(times))")


def import_cli_verify() -> Callable[[], None]:
    """``import gibonacci, gibonacci.cli, gibonacci.verify``, perfbench's
    set-up code.  ``time_once`` builds this case without calling ``cases()``,
    which imports gibonacci, so the first call in the fresh child is the
    import itself, as in a fresh process; later calls find the modules
    loaded."""
    def load() -> None:
        import gibonacci.cli  # noqa: F401  (imports the package too)
        import gibonacci.verify  # noqa: F401

    return load


def cli_quiet(argv: list[str]) -> None:
    """`gibonacci <argv>` in-process, its stdout discarded."""
    from gibonacci import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(argv)


def cli_lcm_12_json() -> Callable[[], None]:
    """One in-process ``gcd-sum --method lcm --k 12 --format json``, whose
    library call takes about 0.014 ms: the fixed cost of a CLI run.  The
    CLI module is imported here, outside the timed call."""
    from gibonacci import cli  # noqa: F401

    return partial(cli_quiet, ["gcd-sum", "--method", "lcm", "--k", "12", "--format", "json"])


def convert_fib_1e6() -> Callable[[], str]:
    """The CLI's decimal conversion, ``cli.decimal_str``, bound to a
    prebuilt F_{10^6}."""
    from gibonacci import cli, fib

    return partial(cli.decimal_str, fib(10**6))


def index_one_gcd_1_4_1e6() -> Callable[[], int]:
    """``math.gcd`` alone, bound to the n = 1 differences G_{k+1} - G_1 and
    G_{k+2} - G_2 for seed (1,4) at k = 10^6, built by one ``gib_pair``
    call.  These full-size operands are not small multiples of the value,
    as both balanced differences are at every even k, so Euclid runs for
    its whole length: the ``math.gcd`` kernel's own case."""
    from gibonacci import Seed, gib_pair

    seed, k = Seed(1, 4), 10**6
    g_k1, g_k2 = gib_pair(seed, k + 1)
    return partial(math.gcd, g_k1 - seed.g1, g_k2 - seed.g0 - seed.g1)


def pisano_fib_every_m_to_1000() -> Callable[[], list[int]]:
    """``pisano_period`` on the Fibonacci seed at every m in [2, 1000]: the
    loop of verify's check 14, many small moduli of few primes each."""
    from gibonacci import FIBONACCI, pisano_period

    return lambda: [pisano_period(FIBONACCI, m) for m in range(2, 1001)]


def period_tables_grid_60() -> Callable[[], list[list[int]]]:
    """``period_table(seed, 60)`` on each of the 256 seeds of verify's grid,
    as its divisibility check (check 6) builds them: every period there
    comes from modular chains at indices below a few hundred."""
    from gibonacci import coprime_seed_grid, pisano

    grid = coprime_seed_grid(10)
    return lambda: [pisano.period_table(seed, 60) for seed in grid]


def gib_pair_small_mod_1000_3000() -> Callable[[], list[tuple[int, int]]]:
    """``gib_pair(FIBONACCI, isqrt(6m) + 1, m)`` at every m in [1000, 3000]:
    the giant step M^s of a baby-step giant-step search for a period of at
    most 6m, one short modular chain per call."""
    from gibonacci import FIBONACCI, gib_pair

    return lambda: [gib_pair(FIBONACCI, math.isqrt(6 * m) + 1, m) for m in range(1000, 3001)]


def cases() -> dict[str, tuple[dict[str, Any], Callable[[], Callable[[], Any]]]]:
    """Name -> (params, setup), on the gibonacci found first on the path.
    setup() builds the case's inputs and returns the zero-argument call
    that is timed."""
    from gibonacci import (
        FIBONACCI,
        LUCAS,
        Identity,
        Seed,
        classify,
        equivalent_up_to_shift,
        fib,
        gcd_sum,
        gcd_sum_lcm,
        gib_term,
        max_modulus_for_period,
        parity_scan,
        pisano,
        pisano_period,
        squares_gcd,
        verify,
        verify_identity,
        window_sum,
    )

    addition = {"m": (1, 200), "n": (1, 200)}
    term_argv = ["term", "--n", str(10**6), "--format"]
    term_1e5, term_1e7 = ["term", "--n", str(10**5)], ["term", "--n", str(10**7)]
    term_minus_1e6 = ["term", "--n", str(-10**6)]
    sum_1e7 = ["sum", "--n", str(5 * 10**6), "--k", str(5 * 10**6)]  # G_{10^7+1} - G_{5*10^6+1}
    gcd_1e6 = ["gcd-sum", "--k", str(10**6 + 2)]
    gcd_120000 = ["gcd-sum", "--k", "120000"]  # chain index 6*10^4, below cli.DECIMAL_CUTOFF
    lucas_odd = ["lucas-odd", "--j", "500001", "--format", "json"]
    gcd_all = ["gcd-sum", "--method", "all", "--k", str(2**20), "--format", "json"]  # brute's cap
    return {
        "import_cli_verify": (
            {"call": "import gibonacci, gibonacci.cli, gibonacci.verify"}, import_cli_verify),
        "gcd_sum_lcm_fib_360": (
            {"seed": [0, 1], "k": 360}, lambda: partial(gcd_sum_lcm, FIBONACCI, 360)),
        "gcd_sum_lcm_fib_840": (
            {"seed": [0, 1], "k": 840}, lambda: partial(gcd_sum_lcm, FIBONACCI, 840)),
        "gcd_sum_lcm_fib_360_bound_3000": (
            {"seed": [0, 1], "k": 360, "bound": 3000},
            lambda: partial(gcd_sum_lcm, FIBONACCI, 360, bound=3000)),
        "gcd_sum_lcm_1_4_240": (
            {"seed": [1, 4], "k": 240}, lambda: partial(gcd_sum_lcm, Seed(1, 4), 240)),
        "gcd_sum_lcm_1_4_1e5": (
            {"seed": [1, 4], "k": 10**5}, lambda: partial(gcd_sum_lcm, Seed(1, 4), 10**5)),
        "gcd_sum_lcm_fib_2_7e6": (  # gcdsum.LCM_ROUTE_INDEX_CAP, the largest k taken unbounded
            {"seed": [0, 1], "k": 27 * 10**5},
            lambda: partial(gcd_sum_lcm, FIBONACCI, 27 * 10**5)),
        "gcd_sum_lcm_1_4_bound_30_2_7e6": (  # the partial flag reads the closed value
            {"seed": [1, 4], "k": 27 * 10**5, "bound": 30},
            lambda: partial(gcd_sum_lcm, Seed(1, 4), 27 * 10**5, bound=30)),
        "gcd_sum_lcm_1_4_bound_30_2_7e6_plus_2": (  # over LCM_ROUTE_INDEX_CAP, bounded too
            {"seed": [1, 4], "k": 27 * 10**5 + 2, "bound": 30},
            lambda: partial(gcd_sum_lcm, Seed(1, 4), 27 * 10**5 + 2, bound=30)),
        "max_modulus_exhaustive_300": (
            {"k": 300, "exhaustive": True},
            lambda: partial(max_modulus_for_period, 300, exhaustive=True)),
        "max_modulus_exhaustive_65536": (
            {"k": 2**16, "exhaustive": True},
            lambda: partial(max_modulus_for_period, 2**16, exhaustive=True)),
        "max_modulus_exhaustive_2_7e6": (  # gcdsum.LCM_ROUTE_INDEX_CAP, its largest k
            {"k": 27 * 10**5, "exhaustive": True},
            lambda: partial(max_modulus_for_period, 27 * 10**5, exhaustive=True)),
        "gcd_sum_fib_1e6": (
            {"seed": [0, 1], "k": 10**6}, lambda: partial(gcd_sum, FIBONACCI, 10**6)),
        "gcd_sum_fib_1e6_plus_1": (  # odd k: the value divides 2|d| = 2
            {"seed": [0, 1], "k": 10**6 + 1}, lambda: partial(gcd_sum, FIBONACCI, 10**6 + 1)),
        "gcd_sum_1_4_4e6_plus_1": (  # odd k, |d| = 11: the value divides 22
            {"seed": [1, 4], "k": 4 * 10**6 + 1},
            lambda: partial(gcd_sum, Seed(1, 4), 4 * 10**6 + 1)),
        "gcd_sum_fib_4e6": (
            {"seed": [0, 1], "k": 4 * 10**6}, lambda: partial(gcd_sum, FIBONACCI, 4 * 10**6)),
        "squares_fib_5e5": (  # even k: the value is F_k, read from one chain and one gcd
            {"seed": [0, 1], "k": 5 * 10**5}, lambda: partial(squares_gcd, FIBONACCI, 5 * 10**5)),
        "squares_fib_5e5_plus_1": (
            {"seed": [0, 1], "k": 5 * 10**5 + 1},
            lambda: partial(squares_gcd, FIBONACCI, 5 * 10**5 + 1)),
        "classify_fib_1e7": (
            {"seed": [0, 1], "k": 10**7}, lambda: partial(classify, FIBONACCI, 10**7)),
        "gcd_index_one_1_4_1e6": (
            {"seed": [1, 4], "k": 10**6, "call": "math.gcd of the two n = 1 differences"},
            index_one_gcd_1_4_1e6),
        "fib_1e7": ({"n": 10**7}, lambda: partial(fib, 10**7)),
        "gib_term_1_4_1e6": (
            {"seed": [1, 4], "n": 10**6}, lambda: partial(gib_term, Seed(1, 4), 10**6)),
        "gib_term_1_4_minus_1e6_minus_1": (  # an odd negative index
            {"seed": [1, 4], "n": -10**6 - 1},
            lambda: partial(gib_term, Seed(1, 4), -10**6 - 1)),
        "window_sum_1_4_1_1e6": (  # G_{10^6+2} - G_2
            {"seed": [1, 4], "n": 1, "k": 10**6},
            lambda: partial(window_sum, Seed(1, 4), 1, 10**6)),
        "parity_scan_1_4_775": (
            {"seed": [1, 4], "m_max": 775}, lambda: partial(parity_scan, Seed(1, 4), 775)),
        "parity_scan_1_4_3000": (
            {"seed": [1, 4], "m_max": 3000}, lambda: partial(parity_scan, Seed(1, 4), 3000)),
        "parity_scan_fib_3000": (
            {"seed": [0, 1], "m_max": 3000}, lambda: partial(parity_scan, FIBONACCI, 3000)),
        "parity_scan_1_4_cap": (  # |d| = 11: four divisors, whatever the bound
            {"seed": [1, 4], "m_max": "SCAN_MODULUS_CAP"},
            lambda: partial(parity_scan, Seed(1, 4), pisano.SCAN_MODULUS_CAP)),
        "parity_scan_2e200_plus_1_3_cap": (  # |d| of 400 bits: every m up to the cap is tried
            {"seed": ["2^200 + 1", 3], "m_max": "SCAN_MODULUS_CAP"},
            lambda: partial(parity_scan, Seed(2**200 + 1, 3), pisano.SCAN_MODULUS_CAP)),
        "parity_scan_4300_digits_cap": (  # |d| of 28,583 bits, reduced once per block
            {"seed": ["10^4299 + 7", "3 10^4299 + 1"], "m_max": "SCAN_MODULUS_CAP"},
            lambda: partial(parity_scan, Seed(10**4299 + 7, 3 * 10**4299 + 1),
                            pisano.SCAN_MODULUS_CAP)),
        "pisano_fib_1e6": (
            {"seed": [0, 1], "m": 10**6}, lambda: partial(pisano_period, FIBONACCI, 10**6)),
        "pisano_fib_every_m_to_1000": (
            {"seed": [0, 1], "m": [2, 1000]}, pisano_fib_every_m_to_1000),
        "period_tables_grid_60": ({"seeds": "coprime_seed_grid(10)", "m_max": 60},
                                  period_tables_grid_60),
        "gib_pair_small_mod_1000_3000": (
            {"seed": [0, 1], "n": "isqrt(6m) + 1", "m": [1000, 3000]},
            gib_pair_small_mod_1000_3000),
        "pisano_1_4_2e20_3e5": (  # a smooth m whose primes share Wall's multiples
            {"seed": [1, 4], "m": "2^20 3^5"},
            lambda: partial(pisano_period, Seed(1, 4), 2**20 * 3**5)),
        "pisano_fib_1e7_plus_19": (
            {"seed": [0, 1], "m": 10**7 + 19},
            lambda: partial(pisano_period, FIBONACCI, 10**7 + 19)),
        "pisano_fib_1e8_plus_7": (
            {"seed": [0, 1], "m": 10**8 + 7},
            lambda: partial(pisano_period, FIBONACCI, 10**8 + 7)),
        "pisano_fib_1e12_plus_39": (  # a prime m < (B + 1)^2: factored, no probe
            {"seed": [0, 1], "m": 10**12 + 39},
            lambda: partial(pisano_period, FIBONACCI, 10**12 + 39)),
        "pisano_fib_1e40": (  # m >= (B + 1)^2: probed first, then 2^40 5^40 factors
            {"seed": [0, 1], "m": 10**40}, lambda: partial(pisano_period, FIBONACCI, 10**40)),
        "pisano_fib_f83": (  # the prime F_83: the probe returns its period, 332
            {"seed": [0, 1], "m": "F_83"}, lambda: partial(pisano_period, FIBONACCI, fib(83))),
        "shift_fib_lucas_1e6_plus_3": (  # different orbits: the search is bounded by the period
            {"seed_a": [0, 1], "seed_b": [2, 1], "m": 10**6 + 3},
            lambda: partial(equivalent_up_to_shift, FIBONACCI, LUCAS, 10**6 + 3)),
        "identity_suite": (
            {"call": "verify.check_identity_suite()"}, lambda: verify.check_identity_suite),
        "gib_addition": (
            {"ranges": addition, "seeds": 25},
            lambda: partial(verify_identity, Identity.GIB_ADDITION, addition)),
        "verify_table_conformance": (
            {"call": "verify.check_table_conformance()"}, lambda: verify.check_table_conformance),
        "verify_run_all": (
            {"call": "verify.run_all()", "checks": len(verify.CHECKS)}, lambda: verify.run_all),
        "verify_cli_json": (
            {"argv": ["verify", "--format", "json"]},
            lambda: partial(cli_quiet, ["verify", "--format", "json"])),
        "cli_lcm_12_json": (
            {"argv": ["gcd-sum", "--method", "lcm", "--k", "12", "--format", "json"]},
            cli_lcm_12_json),
        "term_cli_1e6_text": (
            {"argv": term_argv + ["text"]}, lambda: partial(cli_quiet, term_argv + ["text"])),
        "term_cli_1e6_json": (
            {"argv": term_argv + ["json"]}, lambda: partial(cli_quiet, term_argv + ["json"])),
        "term_cli_1e5_text": (  # above cli.DECIMAL_CUTOFF = 7*10^4
            {"argv": term_1e5}, lambda: partial(cli_quiet, term_1e5)),
        "term_cli_1e7_text": ({"argv": term_1e7}, lambda: partial(cli_quiet, term_1e7)),
        "term_cli_minus_1e6_text": (  # a negative index, on Decimal
            {"argv": term_minus_1e6}, lambda: partial(cli_quiet, term_minus_1e6)),
        "sum_cli_1e7_text": ({"argv": sum_1e7}, lambda: partial(cli_quiet, sum_1e7)),
        "gcd_sum_cli_1e6_plus_2_text": (
            {"argv": gcd_1e6}, lambda: partial(cli_quiet, gcd_1e6)),
        "gcd_sum_cli_120000_text": (
            {"argv": gcd_120000}, lambda: partial(cli_quiet, gcd_120000)),
        "lucas_odd_cli_500001_json": (
            {"argv": lucas_odd}, lambda: partial(cli_quiet, lucas_odd)),
        "gcd_sum_all_cli_1048576_json": (
            {"argv": gcd_all}, lambda: partial(cli_quiet, gcd_all)),
        "str_fib_1e6": (
            {"call": "cli.decimal_str(fib(10**6))", "n": 10**6}, convert_fib_1e6),
    }


def time_once(name: str) -> dict[str, float] | None:
    """Milliseconds of the named case in this process: its first call
    (``first_ms``) and the median of the further calls (``warm_ms``).  None
    when the call is refused with a ValueError."""
    call = import_cli_verify() if name == "import_cli_verify" else cases()[name][1]()
    times: list[float] = []
    warm = 0.0  # the milliseconds of every call after the first
    while len(times) < 2 or warm < BATCH_MS:
        start = time.perf_counter()
        try:
            call()
        except ValueError:
            return None
        times.append((time.perf_counter() - start) * 1e3)
        warm += times[-1] if len(times) > 1 else 0.0
    warm_times = sorted(times[1:])  # their median, without loading statistics
    mid = len(warm_times) // 2
    return {"first_ms": times[0], "warm_ms": (warm_times[mid] + warm_times[~mid]) / 2}


FIELDS = ("first_ms", "warm_ms")


def spread(field: str, values: list[float] | None) -> dict[str, float | None]:
    """The median and the first and third quartiles of one side's runs of
    a field, under the field's name and the name with ``_q1`` and ``_q3``;
    all None when the side refused the case."""
    import statistics

    if values is None:
        return {field: None, f"{field}_q1": None, f"{field}_q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {field: round(median, 3), f"{field}_q1": round(q1, 3), f"{field}_q3": round(q3, 3)}


def run_in(src: Path, name: str) -> dict[str, float] | None:
    """One run of the named case in a fresh process importing gibonacci from
    src; None when it is refused."""
    import json
    import subprocess

    out = subprocess.run([sys.executable, "-c", CHILD, str(src), __file__, name],
                         stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout)


def main() -> None:
    import argparse
    import compileall
    import json
    import platform

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="checkout whose src/ is timed as runs.before")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args()
    sides = {"before": args.against.resolve() / "src", "after": SRC}
    if not (sides["before"] / "gibonacci").is_dir():
        parser.error(f"no gibonacci package under {sides['before']}")

    for src in sides.values():
        compileall.compile_dir(src, quiet=1, force=True)
    sys.path.insert(0, str(SRC))
    runs: dict[str, dict[str, Any]] = {"before": {}, "after": {}}
    after_wins: dict[str, dict[str, int | None]] = {}
    for name, (params, _) in cases().items():
        times: dict[str, list[dict[str, float] | None]] = {"before": [], "after": []}
        for i in range(REPEAT):
            for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
                times[side].append(run_in(sides[side], name))
        refused = None in times["before"] or None in times["after"]
        for side, t in times.items():
            runs[side][name] = {"params": params}
            for field in FIELDS:
                values = [r[field] for r in t] if None not in t else None
                runs[side][name].update(spread(field, values))
        after_wins[name] = {field: None if refused else sum(
            a[field] < b[field] for a, b in zip(times["after"], times["before"]))
            for field in FIELDS}
        before, after = runs["before"][name], runs["after"][name]
        print(f"{name:30s} first {before['first_ms']!s:>10} -> {after['first_ms']!s:>10} ms, "
              f"warm {before['warm_ms']!s:>10} -> {after['warm_ms']!s:>10} ms, "
              f"after won first {after_wins[name]['first_ms']}, warm {after_wins[name]['warm_ms']} "
              f"of {REPEAT}", flush=True)
    doc = {
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "repeat": REPEAT,
        "runs": runs,
        "after_wins": after_wins,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
