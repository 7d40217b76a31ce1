import functools
import itertools
import math

import pytest

from gibonacci.applications import MaxModulusResult
from gibonacci.factor import trial_division
from gibonacci.gcdsum import gcd_sum
from gibonacci.pisano import pisano_period
from gibonacci.sequences import (
    FIBONACCI,
    LUCAS,
    Identity,
    IdentityReport,
    Seed,
    _Progression,
    _Row,
    gib_pair,
)


@functools.cache
def naive_gib(seed: Seed, n: int) -> int:
    """G_n of the seed's sequence by running the recurrence from (G_0, G_1),
    forward for n >= 0 and backward for n < 0."""
    a, b = seed.g0, seed.g1
    if n >= 0:
        for _ in range(n):
            a, b = b, a + b
        return a
    for _ in range(-n):
        a, b = b - a, a
    return a


def naive_fib(n: int) -> int:
    """Iterative Fibonacci oracle, both directions, no doubling tricks."""
    return naive_gib(FIBONACCI, n)


def naive_gib_terms(seed: Seed, lo: int, hi: int) -> dict[int, int]:
    """G_n for n in [lo, hi] by running the recurrence both ways from (G_0, G_1)."""
    terms = {0: seed.g0, 1: seed.g1}
    for n in range(2, hi + 1):
        terms[n] = terms[n - 1] + terms[n - 2]
    for n in range(-1, lo - 1, -1):
        terms[n] = terms[n + 2] - terms[n + 1]
    return {n: v for n, v in terms.items() if lo <= n <= hi}


class NaiveTable:
    """F, L and G term by term from the naive recurrence, for the seed given.

    Answers an int index with its term and a progression with the row of
    its terms, and notes whether any G term was read.
    """

    def __init__(self, seed: Seed):
        self.seed = seed
        self.read_g = False

    @staticmethod
    def _terms(seed: Seed, n):
        if isinstance(n, int):
            return naive_gib(seed, n)
        return _Row(naive_gib(seed, i) for i in n)

    def F(self, n):
        return self._terms(FIBONACCI, n)

    def L(self, n):
        return self._terms(LUCAS, n)

    def G(self, n):
        self.read_g = True
        return self._terms(self.seed, n)


def verify_identity_pointwise(identity: Identity, ranges: dict[str, tuple[int, int]],
                              seeds) -> IdentityReport:
    """The identity check one grid point at a time: the reference for the
    row-at-a-time `verify_identity`.  Each point's last index goes to the
    sides as a one-term progression, over terms from the naive recurrence;
    the seeds run only if some point reads a G term."""
    axes = [range(lo, hi + 1) for lo, hi in (ranges[p] for p in identity.params)]

    def sides_at(table, seed, pt):
        (lhs,), (rhs,) = identity.sides(table, seed, *pt[:-1],
                                        _Progression(range(pt[-1], pt[-1] + 1)))
        return lhs, rhs

    probe = NaiveTable(FIBONACCI)
    for pt in itertools.product(*axes):
        sides_at(probe, FIBONACCI, pt)
    report = IdentityReport(identity, dict(ranges),
                            tuple(seeds) if probe.read_g else (FIBONACCI,), checked=0)
    for seed in report.seeds:
        table = NaiveTable(seed)
        for pt in itertools.product(*axes):
            lhs, rhs = sides_at(table, seed, pt)
            if lhs != rhs:
                report.failures.append((seed, pt, lhs, rhs))
            report.checked += 1
    return report


def residue_period_walk(a: int, b: int, m: int) -> int:
    """Least r >= 1 returning the residue pair (a, b) to itself mod m, by
    stepping the pair one term at a time: the reference for the
    baby-step giant-step period kernel."""
    x, y = a, b
    r = 0
    while True:
        x, y = y, (x + y) % m
        r += 1
        if x == a and y == b:
            return r


def gcd_sum_at_index_one(seed: Seed, k: int) -> int:
    """The paper's closed formula as written, gcd(G_{k+1} - G_1, G_{k+2} - G_2):
    its operands have about twice the bits of the balanced-index ones."""
    g_k1, g_k2 = gib_pair(seed, k + 1)
    return math.gcd(g_k1 - seed.g1, g_k2 - (seed.g0 + seed.g1))


def squares_gcd_direct(seed: Seed, k: int, num_windows: int) -> int:
    """GCD of the first num_windows sums of k consecutive squares, each window
    G_n^2 + ... + G_{n+k-1}^2 (n >= 1) summed from squares of the naive
    recurrence: the reference for the three-window ``squares_gcd``."""
    squares = []
    a, b = seed.g1, seed.g0 + seed.g1
    for _ in range(num_windows + k):  # G_1 .. G_{num_windows + k}, squared
        squares.append(a * a)
        a, b = b, a + b
    window = sum(squares[:k])
    value = window
    for n in range(1, num_windows):
        window += squares[n + k - 1] - squares[n - 1]
        value = math.gcd(value, window)
    return value


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Floyd's cycle finding)."""
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise AssertionError(f"pollard rho found no factor of {n}")


def factorize(n: int) -> dict[int, int]:
    """Complete prime factorization of n >= 1."""
    factors, cofactor = trial_division(n, 10_000)
    stack = [cofactor] if cofactor > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def lcm_over_all_divisors(seed: Seed, k: int) -> int:
    """The lcm route over every divisor of the closed-formula value, not
    just the value itself: one period walk per divisor."""
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


def minimal_window_length_scan(seed: Seed, m: int) -> int:
    """Least s >= 1 such that m divides every s-term window sum, found by
    testing each s against every window start over one full period (the
    residue sequence is periodic, so those starts cover all of them)."""
    pi = pisano_period(seed, m)
    # residues G_1 .. G_{2*pi+2}
    res = [None, seed.g1 % m]  # index 1
    a, b = seed.g1 % m, (seed.g0 + seed.g1) % m
    for _ in range(2, 2 * pi + 3):
        res.append(b)
        a, b = b, (a + b) % m
    for s in range(1, pi + 1):
        if all((res[n + s + 1] - res[n + 1]) % m == 0 for n in range(1, pi + 1)):
            return s
    raise AssertionError("period-length windows must always be divisible by m")


def naive_shift_equivalence(seed_a: Seed, seed_b: Seed, m: int) -> tuple[bool, int | None]:
    """Least shift r with A_{r+n} = B_n (mod m), found by comparing the two
    residue sequences term by term over 2 m^2 terms for each r < m^2 (no
    period of a residue pair exceeds m^2, the number of pairs)."""
    span = m * m
    a = [seed_a.g0 % m, seed_a.g1 % m]
    b = [seed_b.g0 % m, seed_b.g1 % m]
    while len(a) < 3 * span:
        a.append((a[-2] + a[-1]) % m)
    while len(b) < 2 * span:
        b.append((b[-2] + b[-1]) % m)
    for r in range(span):
        if all(a[r + n] == b[n] for n in range(2 * span)):
            return True, r
    return False, None


@pytest.fixture(scope="session")
def grid25():
    from gibonacci.sequences import SMALL_SEED_GRID

    assert len(SMALL_SEED_GRID) == 25
    assert all(math.gcd(s.g0, s.g1) == 1 for s in SMALL_SEED_GRID)
    return SMALL_SEED_GRID
