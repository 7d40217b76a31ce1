import functools
import importlib
import itertools
import math
import pkgutil
import random

import pytest
import sympy

import gibonacci
from gibonacci import sequences
from gibonacci.applications import MaxModulusResult
from gibonacci.gcdsum import gcd_sum
from gibonacci.identities import Identity, IdentityReport, _Progression, _Row
from gibonacci.pisano import ParityScanReport, period_table, pisano_period
from gibonacci.sequences import FIBONACCI, LUCAS, Seed, gib_pair


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


def naive_gib_at(seed: Seed, indices) -> dict[int, int]:
    """G_n for each n of indices, from one run of the recurrence forward and
    one backward from (G_0, G_1), however far apart the indices lie."""
    wanted = set(indices)
    found = {}
    for step in (1, -1):
        a, b = seed.g0, seed.g1  # (G_n, G_{n+1}) at n = 0
        for n in range(0, max((step * i for i in wanted), default=0) + 1):
            if step * n in wanted:
                found[step * n] = a
            a, b = (b, a + b) if step == 1 else (b - a, a)
    return found


def fib_pair_f_l(j: int, m: int | None = None, *, zero=0) -> tuple:
    """(F_j, F_{j+1}) by fast doubling on (F_i, L_i), one product and one
    square a bit, reduced mod 2m after every doubling when m is given, in
    the number type of zero: the reference for the two-square loop of
    ``fib_pair``, which it preceded.  Every halving is exact, since F_i and
    L_i have the same parity, and mod 2m the sum f + l stays even, so an
    even x = X (mod 2m) halves to x/2 = X/2 (mod m)."""
    mod = None if m is None else 2 * m
    if mod is not None and not isinstance(zero, int):
        raise ValueError("a modulus needs the int zero")
    f, l = zero, zero + 2  # (F_i, L_i), starting at i = 0
    odd = 0      # i mod 2
    for bit in range(j.bit_length() - 1, -1, -1):
        f, l = f * l, l * l + (2 if odd else -2)
        if mod is not None:
            f, l = f % mod, l % mod
        odd = j >> bit & 1
        if odd:
            f, l = (f + l) // 2, (5 * f + l) // 2
    f_next = (f + l) // 2
    return (f, f_next) if m is None else (f % m, f_next % m)


def gib_pair_three_products(seed: Seed, n: int, m: int | None = None) -> tuple[int, int]:
    """(G_n, G_{n+1}) by fast doubling on (F_i, F_{i+1}), one product and two
    squares a bit, reduced mod m after every step when m is given: the
    reference for ``gib_pair`` and its two-square ``fib_pair`` loop."""
    j = abs(n)
    a, b = 0, 1  # (F_i, F_{i+1}) for the prefix i of j's bits read so far
    for bit in range(j.bit_length() - 1, -1, -1):
        c = a * (2 * b - a)  # F_{2i}
        d = a * a + b * b    # F_{2i+1}
        a, b = (d, c + d) if j >> bit & 1 else (c, d)
        if m is not None:
            a, b = a % m, b % m
    if n >= 0:
        f_prev, f, f_next = b - a, a, b
    else:
        sign = -1 if j & 1 else 1  # (-1)^j
        f_prev, f, f_next = sign * b, -sign * a, sign * (b - a)
    g, g_next = seed.g0 * f_prev + seed.g1 * f, seed.g0 * f + seed.g1 * f_next
    return (g, g_next) if m is None else (g % m, g_next % m)


def gcd_sum_two_chains(seed: Seed, k: int) -> int:
    """The even-k closed formula at the balanced index n = -k/2 from two
    doubling chains, one for the pair at n and one for the pair at n + k:
    the reference for ``gcd_sum``'s read of both pairs from one chain."""
    n = -(k // 2)
    g_lo, g_lo1 = gib_pair_three_products(seed, n)
    g_hi, g_hi1 = gib_pair_three_products(seed, n + k)
    return math.gcd(g_hi - g_lo, g_hi1 - g_lo1)


def record_doubling_loop(monkeypatch, guard=None, zeros=None) -> list[tuple[int, int | None]]:
    """Replace the package's one doubling loop, ``sequences.fib_pair``, under
    every name any gibonacci module binds it to, by a wrapper that calls
    guard(j, m) first when given and records each call's (j, m) in the list
    returned, and the type name of its zero in zeros when given.  A caller
    that reaches the loop by any route is counted."""
    real = sequences.fib_pair
    calls = []

    def recorded(j, m=None, *, zero=0):
        if guard is not None:
            guard(j, m)
        calls.append((j, m))
        if zeros is not None:
            zeros.append(type(zero).__name__)
        return real(j, m, zero=zero)

    for info in pkgutil.iter_modules(gibonacci.__path__):
        module = importlib.import_module(f"gibonacci.{info.name}")
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, recorded)
    return calls


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
    seed_tuple = tuple(seeds) if probe.read_g else (FIBONACCI,)
    failures, checked = [], 0
    for seed in seed_tuple:
        table = NaiveTable(seed)
        for pt in itertools.product(*axes):
            lhs, rhs = sides_at(table, seed, pt)
            if lhs != rhs:
                failures.append((seed, pt, lhs, rhs))
            checked += 1
    return IdentityReport(identity, dict(ranges), seed_tuple, checked, failures)


def residue_period_walk(a: int, b: int, m: int) -> int:
    """Least r >= 1 returning the residue pair (a, b) to itself mod m, by
    stepping the pair one term at a time: the reference for the
    baby-step giant-step oracle ``residue_period_bsgs``."""
    x, y = a, b
    r = 0
    while True:
        x, y = y, (x + y) % m
        r += 1
        if x == a and y == b:
            return r


# Every nondegenerate seed with entries in [-6, 6], coprime or not, and (3, 9):
# the seeds on which the period-table scans are compared with the direct ones.
SCAN_SEEDS = tuple(
    [s for s in (Seed(g0, g1) for g0 in range(-6, 7) for g1 in range(-6, 7))
     if s != Seed(0, 0)] + [Seed(3, 9)])


def residue_period_bsgs(a: int, b: int, m: int) -> int:
    """Least r >= 1 returning the residue pair (a, b) != (0, 0) to itself
    mod m, by a baby-step giant-step search that needs no factoring: the
    reference for the order-finding ``pisano_period``.

    With s = isqrt(6m) + 1, phase 1 walks up to s steps one term at a
    time.  Phase 2 stores the s baby pairs M^j (a, b), j < s, which are
    distinct since the period exceeds s, and applies M^s (giant steps)
    until one lands on a stored pair: giant step i lands on baby step j
    exactly when i s - j is a multiple of the period, and the first such
    i gives the period itself.  Every period divides the Fibonacci
    period, which is at most 6m (Freyd and Brown), so about s giant steps
    suffice; they run on to the m^2 state bound, so no answer relies on
    that bound.  M^s = [[F_{s-1}, F_s], [F_s, F_{s+1}]] comes from the
    walk, not from fast doubling.
    """
    s = math.isqrt(6 * m) + 1
    x, y = a, b
    for r in range(1, s + 1):
        x, y = y, (x + y) % m
        if x == a and y == b:
            return r
    baby: dict[int, int] = {}
    x, y = a, b
    f, f_next = 0, 1  # (F_j, F_{j+1}) mod m, walked up to j = s
    for j in range(s):
        baby[x * m + y] = j
        x, y = y, (x + y) % m
        f, f_next = f_next, (f + f_next) % m
    f_prev = (f_next - f) % m
    x, y = a, b
    for i in range(1, m * m // s + 2):
        x, y = (f_prev * x + f * y) % m, (f * x + f_next * y) % m
        j = baby.get(x * m + y)
        if j is not None:
            return i * s - j
    raise AssertionError(f"residue pair ({a}, {b}) failed to cycle within {m}^2 steps")


def certify_period(seed: Seed, m: int, r: int) -> None:
    """r is the seed's period mod m: M^r u = u, and M^(r/q) u != u for each
    prime q of r, with the primes from sympy and M^n by square and multiply
    on the step matrix M = [[0, 1], [1, 1]]."""
    def mul(x, y):
        return ((x[0] * y[0] + x[1] * y[2]) % m, (x[0] * y[1] + x[1] * y[3]) % m,
                (x[2] * y[0] + x[3] * y[2]) % m, (x[2] * y[1] + x[3] * y[3]) % m)

    def returns(n: int) -> bool:
        power, base = (1, 0, 0, 1), (0, 1, 1, 1)
        while n:
            if n & 1:
                power = mul(power, base)
            base, n = mul(base, base), n >> 1
        a, b = seed.g0 % m, seed.g1 % m
        return ((power[0] * a + power[1] * b - a) % m == 0
                and (power[2] * a + power[3] * b - b) % m == 0)

    assert returns(r), (seed, m, r)
    for q in sympy.primefactors(r):
        assert not returns(r // q), (seed, m, r, q)


@functools.cache
def period_direct(seed: Seed, m: int) -> int:
    """The seed's period mod m (1 where the seed is (0, 0) mod m) from the
    baby-step giant-step oracle, one call per (seed, m)."""
    a, b = seed.g0 % m, seed.g1 % m
    return 1 if a == 0 and b == 0 else residue_period_bsgs(a, b, m)


def parity_scan_direct(seed: Seed, m_max: int) -> ParityScanReport:
    """The parity scan one modulus at a time, with a kernel call at every m
    that does not divide both seed entries: the reference, blind to the
    Cassini lemma, for ``parity_scan``, which finds periods only at the
    divisors of 2|d|."""
    odd, skipped = [], []
    for m in range(3, m_max + 1):
        if seed.g0 % m == 0 and seed.g1 % m == 0:
            skipped.append(m)
        elif (p := period_direct(seed, m)) % 2 == 1:
            odd.append((m, p))
    return ParityScanReport(seed, m_max, odd, skipped)


def table_odd_periods(seed: Seed, m_max: int) -> list[tuple[int, int]]:
    """The (m, period) with m in (2, m_max] and an odd period, read from one
    ``period_table``, where a period of 1 marks an m dividing both seed
    entries: the table-side reference for ``parity_scan``."""
    return [(m, r) for m, r in enumerate(period_table(seed, m_max)) if m >= 3 and r > 1 and r % 2]


def lcm_scan_direct(seed: Seed, k: int, bound: int) -> int:
    """The lcm of every m <= bound that divides both seed entries or whose
    period divides k, with a kernel call at each other m: the reference
    for the bounded scan of ``gcd_sum_lcm``."""
    value = 1
    for m in range(1, bound + 1):
        if seed.g0 % m == 0 and seed.g1 % m == 0 or k % period_direct(seed, m) == 0:
            value = math.lcm(value, m)
    return value


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


def period_divides_by_walk(seed: Seed, m: int, k: int) -> bool:
    """Whether the seed's period mod m divides k, by stepping the residue
    pair at most k times: a period that divides k is at most k, so the
    first return within k steps is the period, and no return means the
    period exceeds k.  It needs no factoring, so no modulus is refused."""
    a, b = seed.g0 % m, seed.g1 % m
    x, y = a, b
    for r in range(1, k + 1):
        x, y = y, (x + y) % m
        if x == a and y == b:
            return k % r == 0
    return False


def lcm_over_all_divisors(seed: Seed, k: int) -> int:
    """The lcm route over every divisor of the closed-formula value, not
    just the value itself: one bounded period walk per divisor."""
    value = 1
    for d in sympy.divisors(gcd_sum(seed, k).value):
        if period_divides_by_walk(seed, d, k):
            value = math.lcm(value, d)
    return value


def max_modulus_full_scan(k: int) -> MaxModulusResult:
    """Largest modulus with Fibonacci period exactly k (even k >= 6), found
    by walking the period of every divisor of the k-window GCD value."""
    best = max(
        (m for m in sympy.divisors(gcd_sum(FIBONACCI, k).value)
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


def shift_walk(seed_a: Seed, seed_b: Seed, m: int) -> tuple[bool, int | None]:
    """Least shift r >= 0 with A_{r+n} = B_n (mod m), by walking A's residue
    pair one step at a time until it meets B's pair or returns to its
    start: the reference for the baby-step giant-step shift search."""
    start = (seed_a.g0 % m, seed_a.g1 % m)
    target = (seed_b.g0 % m, seed_b.g1 % m)
    x, y = start
    r = 0
    while (x, y) != target:
        x, y = y, (x + y) % m
        r += 1
        if (x, y) == start:
            return False, None
    return True, r


@pytest.fixture(scope="session")
def grid25():
    from gibonacci.identities import SMALL_SEED_GRID

    assert len(SMALL_SEED_GRID) == 25
    assert all(math.gcd(s.g0, s.g1) == 1 for s in SMALL_SEED_GRID)
    return SMALL_SEED_GRID


@pytest.fixture(scope="session")
def random_large_terms_1_4():
    """200 random indices in [-2*10^5, 2*10^5], and the terms of seed (1,4)
    at each of them and at the next index, from one naive walk each way:
    the oracle of both kernels' random large-index tests."""
    rng = random.Random(20260419)
    indices = [rng.randint(-2 * 10**5, 2 * 10**5) for _ in range(200)]
    return indices, naive_gib_at(Seed(1, 4), indices + [n + 1 for n in indices])
