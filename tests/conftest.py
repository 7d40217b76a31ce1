import math

import pytest

from gibonacci.applications import MaxModulusResult
from gibonacci.factor import factorize
from gibonacci.gcdsum import gcd_sum
from gibonacci.pisano import pisano_period
from gibonacci.sequences import FIBONACCI, Seed


def naive_fib(n: int) -> int:
    """Iterative Fibonacci oracle, both directions, no doubling tricks."""
    a, b = 0, 1
    if n >= 0:
        for _ in range(n):
            a, b = b, a + b
        return a
    for _ in range(-n):
        a, b = b - a, a
    return a


def naive_gib_terms(seed: Seed, lo: int, hi: int) -> dict[int, int]:
    """G_n for n in [lo, hi] by running the recurrence both ways from (G_0, G_1)."""
    terms = {0: seed.g0, 1: seed.g1}
    for n in range(2, hi + 1):
        terms[n] = terms[n - 1] + terms[n - 2]
    for n in range(-1, lo - 1, -1):
        terms[n] = terms[n + 2] - terms[n + 1]
    return {n: v for n, v in terms.items() if lo <= n <= hi}


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def lcm_over_all_divisors(seed: Seed, k: int) -> int:
    """The lcm route over every divisor of the closed-formula value, not
    just its prime powers: one period walk per divisor."""
    value = 1
    for d in divisors(gcd_sum(seed, k).value):
        if k % pisano_period(seed, d) == 0:
            value = math.lcm(value, d)
    return value


def max_modulus_full_scan(k: int) -> MaxModulusResult:
    """Largest modulus with Fibonacci period exactly k (even k >= 6), found
    by walking the period of every divisor of the k-window GCD value."""
    best = max(
        (m for m in divisors(gcd_sum(FIBONACCI, k).value)
         if m >= 2 and pisano_period(FIBONACCI, m) == k),
        default=0,
    )
    form = "fib_half" if k % 4 == 0 else "lucas_half"
    return MaxModulusResult(k, best, form, pisano_period(FIBONACCI, best), True)


@pytest.fixture(scope="session")
def grid25():
    from gibonacci.sequences import SMALL_SEED_GRID

    assert len(SMALL_SEED_GRID) == 25
    assert all(math.gcd(s.g0, s.g1) == 1 for s in SMALL_SEED_GRID)
    return SMALL_SEED_GRID
