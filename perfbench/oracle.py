"""Reference answers for benchmark ops, independent of gibonacci.

Values come from sympy (``fibonacci``, ``lucas``, ``factorint``) and the
paper's k mod 12 table; periods are checked by certificate rather than
recomputed.  Runs in the benchmark's parent process, after the timed
region, never in the worker.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any

import sympy

from workloads import Op, digest

#: Outputs longer than this fail in the CLI on CPython's int->str limit.
STR_DIGITS_LIMIT = 4300


@lru_cache(maxsize=None)
def fib(n: int) -> int:
    return int(sympy.fibonacci(n))


@lru_cache(maxsize=None)
def lucas(n: int) -> int:
    return int(sympy.lucas(n))


def term(seed: tuple[int, int], n: int) -> int:
    """G_n = g0 F_{n-1} + g1 F_n, for n >= 1."""
    f_next, f_n = fib(n + 1), fib(n)
    return seed[0] * (f_next - f_n) + seed[1] * f_n


def _window_gcd(seed: tuple[int, int], k: int) -> int:
    """gcd of the k-window sums starting at n = 1 and n = 2.

    Window sums obey the Fibonacci recurrence in n, so two consecutive
    ones generate the same ideal as all of them."""
    g0, g1 = seed
    fa, fb = fib(k + 1), fib(k + 2)
    fc = fa + fb  # F_{k+3}
    g_k2 = g0 * fa + g1 * fb  # G_{k+2}
    g_k3 = g0 * fb + g1 * fc  # G_{k+3}
    return math.gcd(g_k2 - (g0 + g1), g_k3 - (g0 + 2 * g1))


def table_row(seed: tuple[int, int], k: int) -> tuple[str, int | None]:
    """The paper's k mod 12 row and predicted value (None: no claim)."""
    g0, g1 = seed
    delta = math.gcd(2 * g0 + g1, g0 + 3 * g1)  # gcd(G_0 + G_2, G_1 + G_3)
    d_unit = abs(g1 * g1 - g0 * g1 - g0 * g0) == 1
    r = k % 12
    if r in (0, 4, 8):
        return "row_048", delta * fib(k // 2)
    if r in (2, 6, 10):
        return "row_2610", lucas(k // 2)
    if r in (3, 9):
        return "row_39", 2 if d_unit else None
    return "row_15711", 1 if d_unit else None


@lru_cache(maxsize=None)
def closed_value(seed: tuple[int, int], k: int) -> int:
    """GCD of all k-window sums of a coprime seed."""
    predicted = table_row(seed, k)[1]
    return _window_gcd(seed, k) if predicted is None else predicted


# -- period certificates ----------------------------------------------------


def _mat_mul(x: tuple, y: tuple, m: int) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m)


def _step_power(e: int, m: int) -> tuple:
    """M^e mod m for the step map (x, y) -> (y, x + y), M = [[0, 1], [1, 1]]."""
    result, base = (1, 0, 0, 1), (0, 1, 1, 1)
    while e:
        if e & 1:
            result = _mat_mul(result, base, m)
        base = _mat_mul(base, base, m)
        e >>= 1
    return result


def _fixes(power: tuple, seed: tuple[int, int], m: int) -> bool:
    x, y = seed[0] % m, seed[1] % m
    a, b, c, d = power
    return (a * x + b * y) % m == x and (c * x + d * y) % m == y


def is_period(seed: tuple[int, int], m: int, r: int) -> bool:
    """Whether r is the least r >= 1 with M^r (g0, g1) = (g0, g1) mod m.

    Such r form the positive multiples of the least one, so r is least
    iff M^r fixes the seed and M^(r/q) does not for each prime q | r."""
    if r < 1 or not _fixes(_step_power(r, m), seed, m):
        return False
    return all(not _fixes(_step_power(r // q, m), seed, m) for q in sympy.factorint(r))


@lru_cache(maxsize=None)
def _odd_order_power(m: int) -> tuple:
    """M^u mod m, u the odd part of |GL2(Z/m)|'s exponent bound: the order
    of the seed's residue pair is odd iff M^u fixes it (Lagrange)."""
    n = 1
    for p, e in sympy.factorint(m).items():
        n = math.lcm(n, p ** (4 * (e - 1)) * (p * p - 1) * (p * p - p))
    while n % 2 == 0:
        n //= 2
    return _step_power(n, m)


def odd_period_moduli(seed: tuple[int, int], m_max: int) -> list[int]:
    return [m for m in range(3, m_max + 1) if _fixes(_odd_order_power(m), seed, m)]


# -- checking one op --------------------------------------------------------


def expected(op: Op) -> Any:
    """Canonical answer (see ``workloads.library_answer``) for ops with one
    right answer; None for ops checked by certificate instead."""
    kind, seed, args = op.kind, op.seed, op.args
    if kind in ("gcd_sum", "gcd_sum_lcm"):
        return digest(closed_value(seed, args[0]))
    if kind == "classify":
        row, predicted = table_row(seed, args[0])
        return (row, digest(predicted), digest(closed_value(seed, args[0])))
    if kind == "lucas_from_gcd":
        return digest(lucas(args[0]))
    if kind == "gib_term":
        return digest(term(seed, args[0]))
    if kind == "window_sum":
        n, k = args
        return digest(term(seed, n + k + 1) - term(seed, n + 1))
    if kind == "max_modulus_for_period":
        k = args[0]
        return (fib(k // 2), "fib_half", k) if k % 4 == 0 else (lucas(k // 2), "lucas_half", k)
    return None


def exceeds_str_limit(op: Op) -> bool:
    """A CLI op whose answer is too long for CPython's default int->str
    conversion: the known defect that makes it fail."""
    value = {
        "gcd_sum": lambda: closed_value(op.seed, op.args[0]),
        "gib_term": lambda: term(op.seed, op.args[0]),
        "lucas_from_gcd": lambda: lucas(op.args[0]),
    }.get(op.kind)
    return op.cli is not None and value is not None and abs(value()) >= 10**STR_DIGITS_LIMIT


def check(op: Op, answer: Any) -> bool:
    """Whether a canonical answer to op is right."""
    want = expected(op)
    if want is not None:
        if op.kind == "max_modulus_for_period":
            return answer == want and is_period((0, 1), want[0], want[2])
        return answer == want
    if op.kind == "verify":  # (passed, failed) checks
        return answer[0] > 0 and answer[1] == 0
    if op.kind == "pisano_period":
        return isinstance(answer, int) and is_period(op.seed, op.args[0], answer)
    if op.kind == "parity_scan":
        pairs, skipped = answer
        m_max = op.args[0]
        if skipped not in (None, tuple(m for m in range(3, m_max + 1)
                                       if op.seed[0] % m == 0 and op.seed[1] % m == 0)):
            return False
        return ([m for m, _ in pairs] == odd_period_moduli(op.seed, m_max)
                and all(p % 2 == 1 and is_period(op.seed, m, p) for m, p in pairs))
    raise ValueError(f"no reference for op kind {op.kind!r}")
