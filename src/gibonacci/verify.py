"""One-shot verification suite.

Every check reproduces a published value or an exhaustively checkable
claim at desk scale.  Checks report counterexamples verbatim; nothing is
sampled where an exact finite check is stated.  The checks share no state:
`run_check` runs one in this process, and `run_all` runs each in its own
forked child, as many at a time as there are usable CPUs.  That runner is
the one place the library starts processes.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from typing import Callable, NamedTuple

from . import applications, gcdsum, identities, pisano, sequences
from .sequences import FIBONACCI, LUCAS, Seed

SEED_14 = Seed(1, 4)


class CheckResult(NamedTuple):
    criterion: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _grid() -> list[Seed]:
    return sequences.coprime_seed_grid(10)


def check_ruggles_f10() -> tuple[bool, str]:
    closed = gcdsum.gcd_sum(FIBONACCI, 20).value
    brute = gcdsum.gcd_sum_bruteforce(FIBONACCI, 20).value
    ok = closed == 55 and brute == 55
    return ok, f"closed={closed} brute={brute} expected=55"


def check_seed_1_4_example() -> tuple[bool, str]:
    sums = [sequences.window_sum(SEED_14, n, 5) for n in range(1, 5)]
    value = gcdsum.gcd_sum(SEED_14, 5).value
    period = pisano.pisano_period(SEED_14, 11)
    via_lcm = gcdsum.gcd_sum_lcm(SEED_14, 5).value
    ok = sums == [55, 88, 143, 231] and value == 11 and period == 5 and via_lcm == 11
    return ok, f"sums={sums} value={value} period_mod_11={period} lcm={via_lcm}"


def check_period_60_max_modulus() -> tuple[bool, str]:
    value = gcdsum.gcd_sum(FIBONACCI, 60).value
    period = pisano.pisano_period(FIBONACCI, value)
    ok = value == 832040 and period == 60
    return ok, f"value={value} period={period} expected value=832040 period=60"


def _seed_tables(seed: Seed, top: int) -> list[int]:
    """G_0 .. G_top by direct iteration (independent of fast doubling)."""
    g = [seed.g0, seed.g1]
    for _ in range(top - 1):
        g.append(g[-1] + g[-2])
    return g


def check_table_conformance() -> tuple[bool, str]:
    """The k mod 12 table against the closed value at every pair it asks:
    every even k, and odd k only where |d| = 1, the table's scope (a None
    prediction at an asked pair is a mismatch)."""
    bad = []
    applicable = 0
    for seed in _grid():
        step = 1 if abs(seed.cassini) == 1 else 2
        for k in range(step, 121, step):
            c = gcdsum.classify(seed, k)
            applicable += 1
            if c.predicted != c.actual:
                bad.append((seed, k, c.predicted, c.actual))
    detail = f"applicable={applicable} mismatches={bad[:3]}"
    return not bad, detail


def check_method_agreement() -> tuple[bool, str]:
    bad = []
    # closed vs brute force (10 windows, summed directly) on the full grid;
    # on three seeds, the library's closed and brute routes against both
    for seed in _grid():
        library = seed in (FIBONACCI, LUCAS, SEED_14)
        g = _seed_tables(seed, 132)
        prefix = [0]
        for t in g[1:]:
            prefix.append(prefix[-1] + t)  # prefix[i] = G_1 + ... + G_i
        for k in range(1, 121):
            brute = 0
            for n in range(1, 11):
                brute = math.gcd(brute, prefix[n + k - 1] - prefix[n - 1])
            closed = math.gcd(g[k + 1] - g[1], g[k + 2] - g[2])
            if brute != closed:
                bad.append(("brute", seed, k, brute, closed))
            if library:
                routes = gcdsum.gcd_sum(seed, k).value, gcdsum.gcd_sum_bruteforce(seed, k).value
                if routes != (closed, closed):
                    bad.append(("routes", seed, k, *routes, closed))
    # closed vs lcm-over-moduli bounded scan with bound >= candidate
    for seed in (FIBONACCI, LUCAS, SEED_14):
        for k in range(1, 25):
            closed = gcdsum.gcd_sum(seed, k).value
            scan = gcdsum.gcd_sum_lcm(seed, k, bound=closed)
            if scan.value != closed or scan.partial:
                bad.append(("lcm", seed, k, scan.value, closed))
    return not bad, f"mismatches={bad[:3]}"


def check_divisibility_biconditional() -> tuple[bool, str]:
    bad = []
    for seed in _grid():  # coprime, so every entry of the table is a period
        values = {k: gcdsum.gcd_sum(seed, k).value for k in range(1, 37)}
        periods = pisano.period_table(seed, 60)
        for m in range(2, 61):
            p = periods[m]
            for k, v in values.items():
                if (k % p == 0) != (v % m == 0):
                    bad.append((seed, m, k))
    return not bad, f"violations={bad[:3]}"


def check_identity_suite() -> tuple[bool, str]:
    reports = identities.run_families(identities.Identity)
    failing = [(r.identity.value, r.failures[:2]) for r in reports if r.failures]
    return not failing, f"points={sum(r.checked for r in reports)} failing_families={failing}"


def check_parity_scan() -> tuple[bool, str]:
    bad = []
    seeds = [s for s in _grid() if abs(s.cassini) == 1]
    for s in (FIBONACCI, LUCAS):
        if s not in seeds:
            seeds.append(s)
    for seed in [*seeds, SEED_14]:
        scan = pisano.parity_scan(seed, 500).odd_period_moduli
        # the independent side: the odd entries of a full period table, where
        # a period of 1 marks a modulus dividing both seed entries
        table = pisano.period_table(seed, 500)
        if scan != [(m, p) for m, p in enumerate(table) if m >= 3 and p > 1 and p % 2 == 1] \
                or (scan and seed != SEED_14):
            bad.append((seed, scan[:3]))
    has_11_5 = (11, 5) in scan  # the scan of SEED_14, the last seed
    detail = f"even_period_seeds={len(seeds)} bad={bad[:2]} seed_1_4_has_(11,5)={has_11_5}"
    return not bad and has_11_5, detail


def check_fib_lucas_moduli_periods() -> tuple[bool, str]:
    entries = applications.pisano_of_fib_lucas_moduli(20)
    bad = [e for e in entries if e.predicted != e.computed]
    return not bad, f"entries={len(entries)} mismatches={bad[:3]}"


def check_max_modulus_exhaustive() -> tuple[bool, str]:
    last = None
    for k in range(6, 41, 2):
        try:
            last = applications.max_modulus_for_period(k, exhaustive=True)
        except AssertionError as exc:
            return False, f"k={k}: {exc}"
    return True, f"checked even k in [6, 40]; m_f(40)={last.m_f}"


def check_lucas_from_gcd() -> tuple[bool, str]:
    bad = []
    lucas = {j: sequences.lucas(j) for j in range(1, 42, 2)}
    for seed in _grid():
        for j, want in lucas.items():
            got = applications.lucas_from_gcd(seed, j)
            if got != want:
                bad.append((seed, j, got, want))
    return not bad, f"mismatches={bad[:3]}"


def check_odd_k_prime_restriction() -> tuple[bool, str]:
    bad = []
    for seed in _grid():
        for k in range(1, 40, 2):
            report = applications.prime_restriction_check(seed, k)
            if report.offending_primes or report.unfactored_cofactor != 1:
                bad.append((seed, k, report.offending_primes, report.unfactored_cofactor))
    return not bad, f"violations={bad[:3]}"


#: GCDs of sums of k consecutive squared Fibonacci numbers,
#: k = 0 .. 23 (equals F_k at every even k).
SQUARES_TABLE = (
    0, 1, 1, 2, 3, 1, 8, 1, 21, 2, 55, 1,
    144, 1, 377, 2, 987, 1, 2584, 1, 6765, 2, 17711, 1,
)


def check_squares_tables() -> tuple[bool, str]:
    bad, mispredicted = [], []
    for k in range(31):
        rec = applications.squares_gcd(FIBONACCI, k)
        if k < len(SQUARES_TABLE) and rec.value != SQUARES_TABLE[k]:
            bad.append((k, rec.value, SQUARES_TABLE[k]))
        if rec.predicted is not None and rec.predicted != rec.value:
            mispredicted.append((k, rec.value, rec.predicted))
    detail = f"table_mismatches={bad[:3]} prediction_mismatches={mispredicted[:3]}"
    return not bad and not mispredicted, detail


def check_brown_bound() -> tuple[bool, str]:
    bad = [
        m for m in range(2, 1001) if pisano.pisano_period(FIBONACCI, m) > 6 * m
    ]
    equality_at_10 = pisano.pisano_period(FIBONACCI, 10) == 60
    return not bad and equality_at_10, f"violations={bad[:3]} period(10)=60:{equality_at_10}"


CHECKS: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "ruggles-f10", check_ruggles_f10),
    (2, "seed-1-4-worked-example", check_seed_1_4_example),
    (3, "period-60-max-modulus", check_period_60_max_modulus),
    (4, "table-conformance", check_table_conformance),
    (5, "method-agreement", check_method_agreement),
    (6, "divisibility-biconditional", check_divisibility_biconditional),
    (7, "identity-suite", check_identity_suite),
    (8, "parity-scan", check_parity_scan),
    (9, "fib-lucas-moduli-periods", check_fib_lucas_moduli_periods),
    (10, "max-modulus-exhaustive", check_max_modulus_exhaustive),
    (11, "lucas-from-gcd", check_lucas_from_gcd),
    (12, "odd-k-prime-restriction", check_odd_k_prime_restriction),
    (13, "squares-tables", check_squares_tables),
    (14, "brown-bound", check_brown_bound),
]


def _timed(criterion: int, name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    start = time.perf_counter()
    passed, detail = fn()
    return CheckResult(criterion, name, passed, detail, time.perf_counter() - start)


def run_check(criterion: int) -> CheckResult:
    for check in CHECKS:
        if check[0] == criterion:
            return _timed(*check)
    raise ValueError(f"no check numbered {criterion}")


def run_all() -> list[CheckResult]:
    """Every check's result, in criterion order, each check run through
    `run_check`'s `_timed` in its own forked child.

    The checks share no state, so up to min(len(CHECKS), usable CPUs)
    children run at a time, the next check in criterion order starting
    as one ends.  Each child writes its pickled `CheckResult`, or the
    exception its check raised, to a pipe and leaves by ``os._exit``, so
    no atexit handler or buffered output of the parent runs twice.  The
    parent reads the pipes with ``select`` and reaps every child before
    it returns or raises.  A raised exception comes back whole, and the
    first in criterion order is raised here, as in one process; a child
    that ends without a complete result is an AssertionError.

    The checks run in this process, one after another, where there is no
    ``os.fork``, where only one CPU is usable, or where other threads are
    alive: a fork copies only the calling thread, and Python 3.12 warns
    of it.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    slots = min(len(CHECKS), cpus or 1)
    if not hasattr(os, "fork") or slots < 2 or threading.active_count() > 1:
        return [_timed(*check) for check in CHECKS]
    import pickle
    import select
    import signal

    outcomes: list[CheckResult | BaseException | None] = [None] * len(CHECKS)
    running: dict[int, tuple[int, int, list[bytes]]] = {}  # read end -> (index, pid, chunks)
    queue = iter(enumerate(CHECKS))
    try:
        while True:
            for index, check in itertools.islice(queue, slots - len(running)):
                read, write = os.pipe()
                pid = os.fork()
                if pid == 0:  # the child: one check, one write, and out
                    code = 1
                    try:
                        os.close(read)
                        try:
                            outcome: CheckResult | Exception = _timed(*check)
                        except Exception as exc:
                            outcome = exc
                        with open(write, "wb") as pipe:
                            pipe.write(pickle.dumps(outcome))
                        code = 0
                    finally:
                        os._exit(code)
                os.close(write)
                running[read] = index, pid, []
            if not running:
                break
            for read in select.select(list(running), [], [])[0]:
                index, pid, chunks = running[read]
                chunk = os.read(read, 1 << 16)
                if chunk:
                    chunks.append(chunk)
                    continue
                del running[read]
                os.close(read)
                status = os.waitpid(pid, 0)[1]
                try:
                    outcomes[index] = pickle.loads(b"".join(chunks))
                except Exception:  # cut short, or an exception that will not rebuild
                    criterion, name, _ = CHECKS[index]
                    outcomes[index] = AssertionError(
                        f"check {criterion} ({name}) ended without a complete result, "
                        f"exit status {os.waitstatus_to_exitcode(status)}")
    finally:
        for read, (_, pid, _) in running.items():  # only when the parent itself raised
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes  # every entry a CheckResult
