"""Seeded op lists for the benchmark workloads, and how one op is run.

Standard library only: the worker process imports this module next to
gibonacci, so nothing here may add to its memory or import time.

Why each workload exists is written down in NOTE.md; in short:

* ``bigk-closed`` -- closed-formula queries at indices 10^4..10^6, so the
  fast-doubling term kernel and the big-integer gcd do nearly all the
  work; a quarter of the ops go through ``gibonacci.cli.run``.
* ``period-route`` -- generalized Pisano periods, the lcm-over-periods
  route, exhaustive max-modulus searches and parity scans, so the residue
  walk, the period cache and divisor enumeration do the work.
* ``verify-scoreboard`` -- the 14-check scoreboard from a cold period
  cache: millions of small-integer calls into the same layers.

A run is a fixed number of whole blocks of ops, and each kind of op
takes its sizes at the midpoints of equal slices of its range (see
``op_list``), so every seed runs the same size mix.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any

WORKLOADS = ("bigk-closed", "period-route", "verify-scoreboard")

#: Ops of the traced replay (a fixed list, so every count it reports
#: repeats exactly for a given seed).
PREFIX_OPS = {"bigk-closed": 48, "period-route": 24, "verify-scoreboard": 2}

#: Coprime seeds with |g0|, |g1| <= 10, built here rather than taken from
#: the library so the inputs do not depend on the code under test.
SEEDS = tuple(
    (g0, g1)
    for g0 in range(-10, 11)
    for g1 in range(-10, 11)
    if math.gcd(g0, g1) == 1
)

#: lcm-route k whose candidate has tens of thousands of divisors
#: (36,864 / 14,336 / 12,288 for the Fibonacci seed).
HEAVY_LCM_K = (240, 288, 390)

#: Heavy lcm ops pick from these pairs, seeds ordered by delta =
#: gcd(G_0 + G_2, G_1 + G_3) (1 or 5), which sets the divisor count of the
#: candidate, so that evenly spread picks keep the share of delta-5 seeds.
HEAVY_LCM_PAIRS = tuple(
    (k, s) for k in HEAVY_LCM_K
    for s in sorted(SEEDS, key=lambda s: math.gcd(2 * s[0] + s[1], s[0] + 3 * s[1]))
)

#: Even k for the exhaustive max-modulus search, without the k <= 300 whose
#: candidate has over 10^4 divisors (those belong to HEAVY_LCM_K).
MAX_MODULUS_K = tuple(k for k in range(6, 301, 2) if k not in (240, 288))


@dataclass(frozen=True)
class Op:
    """One call: a library function by name, run directly or via the CLI."""

    kind: str
    seed: tuple[int, int]
    args: tuple[int, ...]
    cli: str | None = None  # None (library call), "text" or "json"


def _log_uniform(u: float, lo: float, hi: float) -> int:
    return round(lo * (hi / lo) ** u)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _next_with_primality(n: int, prime: bool) -> int:
    while _is_prime(n) != prime:
        n += 1
    return n


class _Stream:
    """Op generator of one workload.  Sizes come from named decks of draws
    on [0, 1), which ``op_list`` fills after a first pass has counted them."""

    def __init__(self, rng: random.Random, draws: dict[str, list[float]] | None = None):
        self.rng = rng
        self.draws = draws  # None: only count the draws per deck
        self.counts: dict[str, int] = {}

    def u(self, deck: str) -> float:
        if self.draws is None:
            self.counts[deck] = self.counts.get(deck, 0) + 1
            return 0.5
        return self.draws[deck].pop()

    def seed(self) -> tuple[int, int]:
        return self.rng.choice(SEEDS)

    def pick(self, deck: str, values: tuple) -> Any:
        return values[min(int(self.u(deck) * len(values)), len(values) - 1)]

    def block(self, index: int) -> list[Op]:
        raise NotImplementedError


class _BigKClosed(_Stream):
    # nine library ops and three CLI ops (one per subcommand) per block;
    # indices are log-uniform over 10^4..10^6
    LIB = ("gcd_sum", "gcd_sum", "gcd_sum", "classify", "classify",
           "lucas_from_gcd", "lucas_from_gcd", "gib_term", "window_sum")
    CLI = ("gcd_sum", "gib_term", "lucas_from_gcd")

    def index(self, deck: str) -> int:
        return _log_uniform(self.u(deck), 1e4, 1e6)

    def op(self, kind: str, cli: str | None) -> Op:
        deck = f"{kind}/{cli}"
        if kind == "lucas_from_gcd":
            args = (self.index(deck) // 2 | 1,)  # odd j; the kernel runs at 2j+2
        elif kind == "window_sum":
            args = (self.rng.randint(1, 1000), self.index(deck))
        else:
            args = (self.index(deck),)
        return Op(kind, self.seed(), args, cli)

    def block(self, index: int) -> list[Op]:
        formats = ("json", "text", "json") if index % 2 == 0 else ("text", "json", "text")
        ops = [self.op(kind, None) for kind in self.LIB]
        ops += [self.op(kind, fmt) for kind, fmt in zip(self.CLI, formats)]
        self.rng.shuffle(ops)
        return ops


class _PeriodRoute(_Stream):
    # ten library ops and two CLI ops per block; the CLI ops rotate through
    # the four period subcommands and draw their sizes from decks of their
    # own, so every seed puts the CLI's fixed cost on the same sizes
    CLI = ("pisano_period", "gcd_sum_lcm", "max_modulus_for_period", "parity_scan")

    def pisano(self, prime: bool, cli: str | None = None) -> Op:
        m = _log_uniform(self.u(f"m/{prime}/{cli}"), 1e4, 3e6)
        # the CLI's default Fibonacci seed: the cost is then set by m alone
        return Op("pisano_period", (0, 1), (_next_with_primality(m, prime),), cli)

    def light_lcm(self, cli: str | None = None) -> Op:
        return Op("gcd_sum_lcm", self.seed(), (self.pick(f"lcm/{cli}", tuple(range(1, 201))),), cli)

    def heavy_lcm(self) -> Op:
        # one deck over (k, seed) pairs: every run holds the same pairs,
        # whose costs differ by up to 2x
        k, seed = self.pick("heavy", HEAVY_LCM_PAIRS)
        return Op("gcd_sum_lcm", seed, (k,))

    def max_modulus(self, cli: str | None = None) -> Op:
        return Op("max_modulus_for_period", (0, 1), (self.pick(f"maxmod/{cli}", MAX_MODULUS_K),), cli)

    def parity(self, cli: str | None = None) -> Op:
        return Op("parity_scan", self.seed(), (_log_uniform(self.u(f"parity/{cli}"), 200, 3000),), cli)

    def block(self, index: int) -> list[Op]:
        ops = [
            self.pisano(True), self.pisano(False),
            self.light_lcm(), self.light_lcm(), self.light_lcm(),
            self.heavy_lcm(),
            self.max_modulus(), self.max_modulus(),
            self.parity(), self.parity(),
        ]
        for j in range(2):
            kind = self.CLI[(2 * index + j) % 4]
            fmt = ("json", "text")[(index + j) % 2]
            if kind == "pisano_period":
                ops.append(self.pisano(index % 4 == 0, fmt))
            elif kind == "gcd_sum_lcm":
                ops.append(self.light_lcm(fmt))
            elif kind == "max_modulus_for_period":
                ops.append(self.max_modulus(fmt))
            else:
                ops.append(self.parity(fmt))
        self.rng.shuffle(ops)
        return ops


class _VerifyScoreboard(_Stream):
    def block(self, index: int) -> list[Op]:
        return [Op("verify", (0, 1), (), "json")]


_STREAMS = {
    "bigk-closed": _BigKClosed,
    "period-route": _PeriodRoute,
    "verify-scoreboard": _VerifyScoreboard,
}


#: Ops per second of (scaled) op time at the baseline; ``--seconds`` buys
#: this many ops per second, so a run measures about that long.
RATE = {"bigk-closed": 9.0, "period-route": 9.0, "verify-scoreboard": 0.37}


def planned_ops(workload: str, seconds: float) -> int:
    """Whole blocks, so every run holds each kind of op in the same share."""
    block = len(_STREAMS[workload](random.Random(0)).block(0))
    return block * max(1, round(seconds * RATE[workload] / block))


def op_list(workload: str, seed: int, stream: str, n: int) -> list[Op]:
    """The first n ops of a workload for one seed.

    The kinds of ops follow fixed blocks; every size deck's draws are the
    midpoints of its equal slices of [0, 1), one each, in seeded order.
    So all seeds share one size mix and differ in which op gets which
    size, in the Gibonacci seeds drawn and in the order of ops: the
    run-to-run spread of a size-sensitive quantile is then the machine's,
    not the sampling's.  ``stream`` separates warm-up ops ("warmup")
    from measured ones ("measure"); string seeding of ``random.Random``
    is stable across processes and hash randomization.
    """
    key = f"{workload}/{seed}/{stream}"

    def generate(draws: dict[str, list[float]] | None) -> tuple[_Stream, list[Op]]:
        gen = _STREAMS[workload](random.Random(key), draws)
        ops: list[Op] = []
        index = 0
        while len(ops) < n:
            ops += gen.block(index)
            index += 1
        return gen, ops[:n]

    counter, _ = generate(None)
    draws = {}
    for deck, count in counter.counts.items():
        rng = random.Random(f"{key}/{deck}")
        slices = list(range(count))
        rng.shuffle(slices)
        draws[deck] = [(s + 0.5) / count for s in slices]
    return generate(draws)[1]


# -- running one op ---------------------------------------------------------

_CLI_ARGV = {
    "gcd_sum": ["gcd-sum", "--k"],
    "gcd_sum_lcm": ["gcd-sum", "--method", "lcm", "--k"],
    "gib_term": ["term", "--n"],
    "lucas_from_gcd": ["lucas-odd", "--j"],
    "pisano_period": ["pisano", "--m"],
    "max_modulus_for_period": ["max-modulus", "--exhaustive", "--k"],
    "parity_scan": ["parity-scan", "--m-max"],
    "verify": ["verify"],
}


def cli_argv(op: Op) -> list[str]:
    """Arguments for ``gibonacci.cli.run``.  The seed is passed as
    ``--seed=g0,g1``: argparse reads ``--seed -1,2`` as a missing value."""
    argv = _CLI_ARGV[op.kind] + [str(a) for a in op.args]
    if op.kind not in ("max_modulus_for_period", "verify"):
        argv.append(f"--seed={op.seed[0]},{op.seed[1]}")
    return argv + ["--format", op.cli]


def call_library(g: Any, op: Op) -> Any:
    """Run a library op through the package namespace ``g`` (looked up at
    call time, so the tracer's rebinding applies)."""
    if op.kind == "max_modulus_for_period":
        return g.max_modulus_for_period(op.args[0], exhaustive=True)
    return getattr(g, op.kind)(g.Seed(*op.seed), *op.args)


# -- canonical answers ------------------------------------------------------
# Library results and CLI output are both reduced to one canonical form, in
# which integers of 256 bits or more are replaced by a digest so the worker
# never has to ship or hold them.


def digest(n: int | None) -> Any:
    if n is None or abs(n) < 1 << 256:
        return n
    raw = n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)
    return ("sha256", n.bit_length(), hashlib.sha256(raw).hexdigest())


def library_answer(op: Op, result: Any) -> Any:
    kind = op.kind
    if kind in ("gcd_sum", "gcd_sum_lcm"):
        return digest(result.value)
    if kind == "classify":
        return (result.case_row.value, digest(result.predicted), digest(result.actual))
    if kind == "max_modulus_for_period":
        return (result.m_f, result.predicted_form, result.verified_period)
    if kind == "parity_scan":
        return (tuple(result.odd_period_moduli), tuple(result.skipped_degenerate))
    return digest(result)


def cli_answer(op: Op, text: str) -> Any:
    """Parse CLI output into the canonical form of ``library_answer``
    (``parity_scan`` text output omits the skipped moduli: None)."""
    if op.cli == "json":
        data = json.loads(text)
        if op.kind == "verify":
            return (int(data["passed"]), int(data["failed"]))
        if op.kind in ("gcd_sum", "gcd_sum_lcm"):
            return digest(int(data["results"][0]["value"]))
        if op.kind == "pisano_period":
            return digest(int(data["record"]["period"]))
        if op.kind == "max_modulus_for_period":
            r = data["result"]
            return (int(r["m_f"]), r["predicted_form"], int(r["verified_period"]))
        if op.kind == "parity_scan":
            r = data["report"]
            return (tuple((int(m), int(p)) for m, p in r["odd_period_moduli"]),
                    tuple(int(m) for m in r["skipped_degenerate"]))
        return digest(int(data["value"]))
    text = text.strip()
    if op.kind in ("gcd_sum", "gcd_sum_lcm"):
        return digest(int(text.split(": ", 1)[1]))
    if op.kind == "max_modulus_for_period":
        fields = dict(part.split("=", 1) for part in text.split())
        return (int(fields["m"]), fields["form"], int(fields["period"]))
    if op.kind == "parity_scan":
        pairs = () if text == "none" else tuple(
            tuple(int(x) for x in pair.strip("()").split(",")) for pair in text.split()
        )
        return (pairs, None)
    return digest(int(text))


def op_index(op: Op) -> int | None:
    """Largest sequence index the op's answer needs (bigk-closed inputs)."""
    if op.kind == "lucas_from_gcd":
        return 2 * op.args[0] + 2
    if op.kind == "window_sum":
        return op.args[0] + op.args[1] + 1
    if op.kind in ("gcd_sum", "classify"):
        return op.args[0] + 2
    if op.kind == "gib_term":
        return op.args[0]
    return None
