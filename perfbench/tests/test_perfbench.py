"""Tests of the benchmark harness itself (not of gibonacci).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import gibonacci  # noqa: E402
import gibonacci.cli  # noqa: E402
import oracle  # noqa: E402
from gibonacci import pisano  # noqa: E402
from tracing import SelfTimes, Tracer  # noqa: E402
from worker import peak_rss_mb, run_op  # noqa: E402
from workloads import WORKLOADS, Op, cli_answer, op_list  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = op_list(workload, 7, "measure", 40)
    assert len(first) == 40 and first == op_list(workload, 7, "measure", 40)
    if workload != "verify-scoreboard":  # its one op takes no input
        assert first != op_list(workload, 8, "measure", 40)
        assert sorted(map(repr, first)) != sorted(map(repr, op_list(workload, 8, "measure", 40)))
        assert first != op_list(workload, 7, "warmup", 40)


def test_sizes_are_stratified_over_the_run():
    # 120 ops hold 30 library gcd_sum ops: one per 1/30 of the log-size range
    for seed in range(5):
        ks = sorted(op.args[0] for op in op_list("bigk-closed", seed, "measure", 120)
                    if op.kind == "gcd_sum" and op.cli is None)
        slices = [int(30 * math.log(k / 1e4, 100)) for k in ks]
        assert slices == list(range(30))


@pytest.mark.parametrize("op, right, wrong", [
    (Op("gcd_sum", (1, 4), (5,)), 11, 12),
    (Op("gcd_sum", (0, 1), (20,)), 55, 110),
    (Op("gcd_sum_lcm", (3, 7), (8,)), 3, 6),
    (Op("gcd_sum", (1, 4), (7,)), 1, 11),  # odd k, |d| = 11: checked by window gcd
    (Op("gib_term", (1, 4), (7,)), 60, 61),
    (Op("window_sum", (1, 4), (1, 5)), 55, 54),
    (Op("lucas_from_gcd", (3, 7), (9,)), 76, 77),
    (Op("classify", (2, 1), (12,)), ("row_048", 40, 40), ("row_048", 40, 41)),
    (Op("pisano_period", (0, 1), (10,)), 60, 120),  # a multiple is not the period
    (Op("pisano_period", (1, 4), (11,)), 5, 4),
    (Op("max_modulus_for_period", (0, 1), (60,)), (832040, "fib_half", 60), (832039, "fib_half", 60)),
    (Op("parity_scan", (1, 4), (20,)), (((11, 5),), ()), ((), ())),
    (Op("parity_scan", (1, 4), (20,)), (((11, 5),), ()), (((11, 15),), ())),
    (Op("verify", (0, 1), (), "json"), (14, 0), (13, 1)),
])
def test_oracle_accepts_the_answer_and_rejects_a_perturbed_one(op, right, wrong):
    assert oracle.check(op, right)
    assert not oracle.check(op, wrong)


def test_oracle_period_certificate_and_parity_match_a_direct_walk():
    def walk(a, b, m):
        x, y, r = a, b, 0
        while True:
            x, y, r = y, (x + y) % m, r + 1
            if (x, y) == (a, b):
                return r

    seed = (3, -5)
    periods = {m: walk(seed[0] % m, seed[1] % m, m) for m in range(3, 120)}
    assert all(oracle.is_period(seed, m, p) for m, p in periods.items())
    assert not any(oracle.is_period(seed, m, 2 * p) for m, p in periods.items())
    assert oracle.odd_period_moduli(seed, 119) == [m for m, p in periods.items() if p % 2]


def test_self_times_on_a_hand_built_span_tree():
    # cli [0, 10] -> gcdsum [1, 6] -> sequences [2, 5]; cli -> sequences [7, 9]
    spans = [  # (id, parent id, layer, duration)
        (3, 2, "sequences", 3.0),
        (2, 1, "gcdsum", 5.0),
        (4, 1, "sequences", 2.0),
        (1, None, "cli", 10.0),
    ]
    totals = SelfTimes()
    for span in spans:  # closing order: children first
        totals.add(*span)
    assert dict(totals.by_layer) == {"cli": 3.0, "gcdsum": 2.0, "sequences": 5.0}


def test_worker_peak_rss_excludes_a_large_parent():
    ballast = b"x" * (128 << 20)  # touched pages, held while the child runs
    parent = peak_rss_mb()
    child = subprocess.run(
        [sys.executable, "-E", "-s", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import worker; print(worker.peak_rss_mb())",
         str(HERE.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert len(ballast) and parent > 128
    assert float(child.stdout) < parent - 100


def test_mirrored_cache_counts_on_a_scripted_sequence():
    tracer = Tracer()
    uninstall = tracer.install(gibonacci)
    try:
        gibonacci.pisano.clear_period_cache()
        gibonacci.pisano_period(gibonacci.Seed(0, 1), 10)  # miss, walks 60
        gibonacci.pisano_period(gibonacci.Seed(0, 1), 10)  # hit
        gibonacci.parity_scan(gibonacci.Seed(0, 1), 5)  # misses at m = 3, 4, 5: 8 + 6 + 20
        gibonacci.gcd_sum_lcm(gibonacci.Seed(1, 4), 5)  # moduli 1 (no lookup) and 11: walks 5
        assert len(pisano._period_cache) == len(tracer.cache.seen) == 5
        gibonacci.pisano.clear_period_cache()
        gibonacci.pisano_period(gibonacci.Seed(0, 1), 10)  # miss again after the clear
    finally:
        uninstall()
    m = tracer.metrics(("gcdsum", "pisano"))
    assert (m["pisano.cache_lookups"], m["pisano.cache_hits"], m["pisano.walk_steps"]) == (7, 1, 159)
    assert m["gcdsum.lcm_moduli_tested"] == 2
    assert m["pisano.max_modulus_bits"] == 4  # m = 11
    assert gibonacci.pisano_period is pisano.pisano_period  # uninstall restored the originals
    assert not hasattr(gibonacci.pisano_period, "__wrapped__")


def test_tracer_counts_an_error_once_where_it_is_raised():
    tracer = Tracer()
    uninstall = tracer.install(gibonacci)
    try:
        with pytest.raises(ValueError):
            gibonacci.cli.run(["term", "--n", "30000"])
    finally:
        uninstall()
    m = tracer.metrics(("cli", "sequences"))
    assert m["cli.errors"] == 1 and m["sequences.errors"] == 0
    assert m["sequences.max_index"] == 30000


@pytest.mark.parametrize("kind, args, seed", [
    ("gcd_sum", (60,), (1, 4)),
    ("gcd_sum_lcm", (24,), (2, 1)),
    ("gib_term", (300,), (-3, 7)),
    ("lucas_from_gcd", (21,), (-1, 2)),
    ("pisano_period", (1009,), (1, 4)),
    ("max_modulus_for_period", (40,), (0, 1)),
    ("parity_scan", (300,), (1, 4)),
])
def test_cli_and_library_answers_agree_and_pass_the_oracle(kind, args, seed):
    answers = []
    for cli in (None, "json", "text"):
        op = Op(kind, seed, args, cli)
        outcome = run_op(gibonacci, op)[2]
        answers.append(outcome[1] if cli is None else cli_answer(op, outcome[2]))
        assert oracle.check(op, answers[-1])
    if kind == "parity_scan":  # text output omits the skipped moduli
        answers[2] = (answers[2][0], answers[0][1])
    assert answers[0] == answers[1] == answers[2]


def test_cli_output_over_the_digit_limit_is_the_predicted_failure():
    big = Op("gib_term", (0, 1), (30000,), "json")
    small = Op("gib_term", (0, 1), (20000,), "json")
    assert oracle.exceeds_str_limit(big) and not oracle.exceeds_str_limit(small)
    assert run_op(gibonacci, big)[2][0] == "error"
    assert run_op(gibonacci, small)[2][0] == "cli"
