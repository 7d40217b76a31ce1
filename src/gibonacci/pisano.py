"""Generalized Pisano periods: Gibonacci sequences reduced modulo m.

The period of seed (g0, g1) modulo m is the least r >= 1 with
G_r = g0 and G_{r+1} = g1 (mod m).  The step map on residue pairs is
invertible, so the residue sequence is purely periodic, with a period of
at most m^2 - 1, and the r with M^r u = u (M the step matrix, u the
residue pair) are exactly the multiples of the period.

A period is found by order finding from a known multiple n (Cohen, *A
Course in Computational Algebraic Number Theory*, Alg. 1.4.3).
``_order`` checks M^n u = u, then strips from n each prime q's power
beyond the period's, in O(omega(n) log n + Omega(n) log q) modular
products: it reads each M^r as (F_r, F_{r+1}) from a ``fib_pair`` chain
and applies it through ``gib_from_fib``, the one place M^r is applied.
A failed check is an AssertionError, raised there alone.  The lcm route and
``max_modulus_for_period`` pass k as the multiple
(``period_from_multiple``).  ``pisano_period`` and ``period_table`` find
the period at each prime power p^e of m by order finding from Wall's
multiple p^(e-1) W(p) and join the parts by the CRT (both lemmas are
in ``period_table``); ``pisano_period`` factors m by trial division up to
``TRIAL_DIVISION_BOUND``, ``period_table`` reads a sieve.  An m that the
division may leave unfactored (m >= (B + 1)^2) is first probed for a
period of at most ``PERIOD_TABLE_CAP`` steps: such m often have short
periods (F_n and L_n, divisors of GCD-of-sums values), which the probe
finds whether or not m factors.  ``parity_scan`` builds no table: only a
divisor of twice the Cassini constant can have an odd period (the lemma
is in ``parity_scan``), so it calls ``pisano_period`` at those alone.

There is one search, ``_shift_steps``, baby-step giant-step from one
residue pair to another: the probe's, from a pair back to itself, and
``equivalent_up_to_shift``'s.  No route keeps state between calls.

The period is also the least window length whose sums m always divides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .factor import trial_division
from .sequences import Seed, fib_pair, gib_from_fib

# The budget of ``pisano_period``: m, and Wall's multiple of each of its
# primes, are factored by trial division up to this bound.  A cofactor
# below (B + 1)^2 left by the division is prime, so every m below 2^42 is
# factored, and so is each W(p)/2 <= p + 1 of its primes; above that, m
# must be B-smooth but for one prime below 2^42.  At the bound's worst,
# a prime m near 2^42, the division takes about 0.15 s (Python 3.11.7).
TRIAL_DIVISION_BOUND = 2**21

# The longest m, in bits, that ``pisano_period`` takes; a longer one is
# refused at once, since the division and the probe both slow with m's
# length.  At the cap, a division that finds no prime takes about 0.3 s
# (Python 3.11.7).
MODULUS_BIT_CAP = 512

# The longest period ``pisano_period`` probes for (512 baby and giant steps),
# the most baby-step pairs a shift search stores (about 30 MB, so 2^36), and
# the largest k ``max_modulus_for_period`` takes, as a stand-in for a budget
# on ``classify``'s doubling chain.
PERIOD_TABLE_CAP = 2**18

# The largest m_max a scan covers: parity scans and the lcm route's bounded
# scan refuse more before any period is found.  At the cap, the lcm route's
# table, period_table((1, 4), 2**17), takes about 0.35 s and 22 MB peak RSS
# (Python 3.11.7).
SCAN_MODULUS_CAP = 2**17


def clear_period_cache() -> None:
    """Nothing to clear: no period route keeps state between calls.

    Kept because perfbench's worker calls it before every cold run."""


def _require_scan_bound(m_max: int) -> None:
    """A ValueError when m_max is over ``SCAN_MODULUS_CAP``."""
    if m_max > SCAN_MODULUS_CAP:
        raise ValueError(f"scan of every modulus up to {m_max} refused: "
                         f"over SCAN_MODULUS_CAP = {SCAN_MODULUS_CAP}")


def _modulus_name(m: int) -> object:
    """m itself in an error message, or its bit length when m is long."""
    return m if m.bit_length() <= 160 else f"a {m.bit_length()}-bit modulus"


def _shift_steps(start: tuple[int, int], target: tuple[int, int], m: int,
                 bound: int) -> int | None:
    """Least r in [1, bound] with M^r start = target mod m, else None; with
    target = start, the period of start if it is at most bound.

    Baby-step giant-step with s = isqrt(bound - 1) + 1: a dict maps each
    baby pair M^j target, j < s, to its largest j, and giant step i, up to
    ceil(bound / s), is M^(i s) start.  It lands on j exactly when
    r = i s - j returns start to target, and these r fill the window
    [(i - 1) s + 1, i s]; the windows tile [1, oo).  So the first step
    that lands is the one whose window holds the least r, and the largest
    j gives that r, whether or not the baby pairs repeat (a period below
    s).  Raises ValueError, before any step, when s exceeds
    ``PERIOD_TABLE_CAP``.
    """
    s = math.isqrt(bound - 1) + 1
    if s > PERIOD_TABLE_CAP:
        raise ValueError(f"period mod {_modulus_name(m)} exceeds PERIOD_TABLE_CAP = "
                         f"{PERIOD_TABLE_CAP} squared, and a shift search over it needs a "
                         f"table of isqrt(period - 1) + 1 pairs, over the cap")
    baby: dict[int, int] = {}
    x, y = target
    for j in range(s):
        baby[x * m + y] = j
        x, y = y, (x + y) % m
    f, f_next = fib_pair(s, m)  # M^s, applied by gib_from_fib
    x, y = start
    for i in range(1, -(-bound // s) + 1):
        x, y = gib_from_fib(x, y, s, f, f_next, m)
        j = baby.get(x * m + y)
        if j is not None:
            return r if (r := i * s - j) <= bound else None
    return None


def _residues(seed: Seed, m: int) -> tuple[int, int]:
    """The seed mod m, for a modulus and seed that have a period."""
    seed.require_nondegenerate()
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    a, b = seed.g0 % m, seed.g1 % m
    if m > 1 and a == 0 and b == 0:
        raise ValueError(f"seed {seed} is congruent to (0, 0) mod {m}; period undefined")
    return a, b


def _factored(n: int, m: int, what: str) -> dict[int, int]:
    """The primes of n, with their exponents, by trial division up to
    ``TRIAL_DIVISION_BOUND``; a ValueError on the period mod m, naming
    what n is, when a cofactor is left, which by the lemma there happens
    only for m >= (B + 1)^2, after the probe."""
    factors, cofactor = trial_division(n, TRIAL_DIVISION_BOUND)
    if cofactor > 1:
        raise ValueError(f"period mod {_modulus_name(m)} refused: trial division up to "
                         f"TRIAL_DIVISION_BOUND = {TRIAL_DIVISION_BOUND} does not factor {what}, "
                         f"and the period exceeds PERIOD_TABLE_CAP = {PERIOD_TABLE_CAP} steps")
    return factors


def pisano_period(seed: Seed, m: int) -> int:
    """Period of the seed's Gibonacci sequence modulo m, by order finding.

    m is factored by trial division up to ``TRIAL_DIVISION_BOUND`` = B,
    and so is Wall's multiple W(p) of each prime p of m; the period mod
    each prime power p^e comes from the multiple p^(e-1) W(p), and the
    period mod m is the lcm of those periods (both lemmas are proved at
    ``period_table``).  Every m below (B + 1)^2, so every m below 2^42,
    factors.  A larger m is first probed by ``_shift_steps`` from its
    residue pair back to itself, which returns any period of at most
    ``PERIOD_TABLE_CAP``, factored or not; an m, or a W(p), that the
    division then leaves with a cofactor is refused with a ValueError
    naming B and the cap, before any order finding.  An m of more than
    ``MODULUS_BIT_CAP`` bits is refused at once.

    m = 1 returns 1 by convention.  Errors on the seed (0, 0), and if
    the seed reduces to (0, 0) mod m: the constant-zero residue sequence
    is excluded.

    The period is also the least s >= 1 such that m divides every sum of
    s consecutive terms.  A window sum starting at n >= 1 is
    G_{n+s+1} - G_{n+1}, so s qualifies exactly when G_{j+s} = G_j
    (mod m) for every j >= 2, that is when the residue pair (G_2, G_3)
    returns after s steps.  That pair lies on the seed's own orbit (the
    step map is a bijection), so the least such s is the period.
    """
    a, b = _residues(seed, m)
    if m.bit_length() > MODULUS_BIT_CAP:
        raise ValueError(f"period mod {_modulus_name(m)} refused: over "
                         f"MODULUS_BIT_CAP = {MODULUS_BIT_CAP} bits")
    if (m >= (TRIAL_DIVISION_BOUND + 1) ** 2
            and (r := _shift_steps((a, b), (a, b), m, PERIOD_TABLE_CAP)) is not None):
        return r
    parts = []  # (p^e, its multiple p^(e-1) W(p), the primes of p W(p)), all factored first
    for p, e in _factored(m, m, "it").items():
        w = _wall_multiple(p)
        parts.append((p**e, p ** (e - 1) * w,
                      {p, *_factored(w, m, f"Wall's multiple {w} of its prime {p}")}))
    return math.lcm(*(_order(a % q, b % q, q, n, primes)
                      if a % q or b % q else 1 for q, n, primes in parts))


def _order(a: int, b: int, m: int, n: int, primes: Iterable[int]) -> int:
    """Order finding on the residue pair u = (a, b) mod m from the multiple n.

    The least r dividing n with M^r u = u whose cofactor n / r has only
    the given primes: with every prime of n, the period of u.  Raises
    AssertionError, naming u, m and n, unless M^n u = u: every caller
    passes a multiple the theory guarantees.  The return times of u are
    the multiples of its period, so stripping a prime q while
    M^(r/q) u = u leaves the period's own power of q in r.  One chain
    tests the first strip of each q.  Where it holds and q^v (v >= 1) is
    left in r, a second chain gives M^(r/q^v), and the least t <= v with
    M^(r q^(t-v)) u = u is found by raising that to the q-th power, in
    log q products by ``gib_from_fib``, which steps (F_s, F_{s+1}) by r to
    (F_{r+s}, F_{r+s+1}).  So a prime costs at most two chains.
    """
    if gib_from_fib(a, b, n, *fib_pair(n, m), m) != (a, b):
        pair = f"residue pair ({a}, {b})" if m.bit_length() <= 160 else "a residue pair"
        raise AssertionError(f"period of {pair} mod {_modulus_name(m)} does not divide "
                             f"the multiple {n}")
    for q in primes:
        if n % q or gib_from_fib(a, b, n // q, *fib_pair(n // q, m), m) != (a, b):
            continue
        n //= q
        v = 0  # the power of q left in n, which the period may lack
        while n % q == 0:
            n, v = n // q, v + 1
        if not v:
            continue
        f, g = fib_pair(n, m)  # M^n as (F_n, F_{n+1})
        while gib_from_fib(a, b, n, f, g, m) != (a, b):
            n, v = n * q, v - 1
            if not v:  # M^n u = u is known
                break
            r, h, k = n // q, f, g  # (f, g)^q, by square and multiply from (h, k) = M^r
            for t in range(q.bit_length() - 2, -1, -1):  # (f, g) = M^((q >> t + 1) r)
                f, g = gib_from_fib(f, g, (q >> t + 1) * r, f, g, m)
                if q >> t & 1:
                    f, g = gib_from_fib(f, g, r, h, k, m)
    return n


def period_from_multiple(seed: Seed, m: int, n: int, primes: Iterable[int] = ()) -> int:
    """The seed's period mod m read from a multiple n of it.

    ``primes`` are the primes of n to strip (``_order``): given all of
    them, the result is the period; given none, it is n, so the call
    only checks that the period divides n.  A period that does not is
    ``_order``'s AssertionError.  Errors as ``pisano_period`` does on
    the seed and m, and on n < 1.  No cap
    applies: the cost is at most two chains of O(log n) products mod m
    for each prime, and O(log q) products for each further power of q.
    """
    a, b = _residues(seed, m)
    if n < 1:
        raise ValueError("multiple n must be >= 1")
    return _order(a, b, m, n, primes)


def _wall_multiple(p: int) -> int:
    """A multiple of the Fibonacci period mod the prime p (Wall 1960)."""
    if p == 2:
        return 3
    if p == 5:
        return 20
    return p - 1 if p % 5 in (1, 4) else 2 * (p + 1)


def period_table(seed: Seed, m_max: int) -> list[int]:
    """Periods of the seed mod every m in [1, m_max], as a list indexed by m.

    Entry m is the period mod m, or 1 where the seed is congruent to
    (0, 0) mod m; entry 0 is unused.  At each prime power p^e to which
    the seed does not reduce as (0, 0), ``_order`` finds the period
    from the multiple p^(e-1) W(p), with W(p)
    Wall's multiple of the Fibonacci period mod p: 3 at p = 2, 20 at
    p = 5, p - 1 when p = +-1 (mod 5) and 2(p + 1) when p = +-2 (mod 5).
    The primes of that multiple are read from the table's own
    smallest-prime-factor sieve.  Every other entry is the lcm of two
    earlier ones.  An m_max above ``SCAN_MODULUS_CAP`` is a ValueError,
    raised before any table is built, and a period that does not divide
    its multiple is an AssertionError.

    Lemma (Wall's multiple).  Every seed's period mod p^e divides
    p^(e-1) W(p).  Proof.  M^r u = u for every u once M^r = I, so the
    period divides the Fibonacci period, the order of M; it is enough
    that M^(p^(e-1) W(p)) = I (mod p^e).  Mod p: M has characteristic
    polynomial x^2 - x - 1, with discriminant 5.  M^3 = I (mod 2) and
    M^20 = I (mod 5) by direct computation.  For p = +-1 (mod 5), 5 is a
    square mod p, so the two roots lie in F_p^*, are distinct, and have
    orders dividing p - 1; M is diagonalizable over F_p, so M^(p-1) = I.
    For p = +-2 (mod 5), the roots lie in F_(p^2) and the Frobenius map
    swaps them, so phi^(p+1) = phi psi = -1 and phi^(2(p+1)) = 1, and
    likewise for psi; so M^(2(p+1)) = I.  Lift: if A = I + p^j B with
    j >= 1, then A^p = I + p^(j+1) B + sum_(i>=2) C(p, i) p^(ij) B^i,
    and ij >= 2j >= j + 1, so A^p = I (mod p^(j+1)).  Applied e - 1
    times from A = M^W(p), this gives M^(p^(e-1) W(p)) = I (mod p^e).

    Lemma (CRT).  Write m = q * n with q = p^e the full power of a prime p
    in m, so gcd(q, n) = 1.  Then the period mod m is the lcm of the
    periods mod q and mod n, where a factor to which the seed reduces as
    (0, 0) counts as period 1.  Seed (3, 6) at m = 6 has lcm(1, 3) = 3.

    Proof.  By the CRT, two integers agree mod m exactly when they agree
    mod q and mod n.  So the residue pair (G_r, G_{r+1}) equals (g0, g1)
    mod m exactly when it does mod q and mod n.  Mod a factor with a
    period, the return times are the multiples of that period, because
    the residue sequence is purely periodic.  Mod a factor to which the
    seed reduces as (0, 0), the sequence is all zero and every r >= 1 is
    a return time, as for period 1.  The least common return time r >= 1
    is therefore the lcm of the two periods.  The period 1 arises only
    from the pair (0, 0), since (a, b) -> (b, a + b) fixes no other, so
    entry m is 1 exactly where the seed reduces as (0, 0) mod m.
    """
    _require_scan_bound(m_max)
    # smallest prime factor up to m_max + 1, which covers p - 1 and p + 1:
    # a composite m keeps its least divisor d >= 2, which is prime, from
    # the last d with d * d <= m written over it
    top = m_max + 1
    spf = list(range(top + 1))
    for d in range(math.isqrt(top), 1, -1):
        spf[d * d::d] = [d] * len(range(d * d, top + 1, d))

    def primes_of(n: int) -> set[int]:  # n even or at most top
        primes = set()
        while n > 1:
            q = 2 if n % 2 == 0 else spf[n]
            primes.add(q)
            while n % q == 0:
                n //= q
        return primes

    periods = [0, 1] + [0] * (m_max - 1)
    for m in range(2, m_max + 1):
        p = q = spf[m]
        while m % (q * p) == 0:  # q: the full power of p in m
            q *= p
        if q < m:
            periods[m] = math.lcm(periods[q], periods[m // q])
        else:
            a, b, w = seed.g0 % m, seed.g1 % m, _wall_multiple(p)
            periods[m] = _order(a, b, m, m // p * w, primes_of(w) | {p}) if a or b else 1
    return periods


@dataclass
class ParityScanReport:
    """Moduli in (2, m_max] whose period is odd, for one seed."""

    seed: Seed
    m_max: int
    odd_period_moduli: list[tuple[int, int]] = field(default_factory=list)
    skipped_degenerate: list[int] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.odd_period_moduli


def parity_scan(seed: Seed, m_max: int) -> ParityScanReport:
    """Scan m in (2, m_max] and report every modulus with an odd period.

    Only the divisors m of 2|d|, with d = ``seed.cassini``, are looked
    at: an m dividing both seed entries has no period and is listed as
    skipped, and any other gets ``pisano_period``.  An m_max above
    ``SCAN_MODULUS_CAP`` is refused before any period is found.

    Lemma.  A modulus m that is not a divisor of 2|d| has an even period
    and does not divide both seed entries.  Proof.  By induction in both
    directions, G_(n+1) G_(n-1) - G_n^2 = (-1)^n d for every integer n.
    The step map is invertible mod m, so at the period r the residue
    triple (G_(r-1), G_r, G_(r+1)) is (G_(-1), G_0, G_1) mod m, and the
    identity at n = r and at n = 0 gives (-1)^r d = d (mod m).  An odd r
    thus forces m | 2d.  An m dividing both entries divides
    g = gcd(g0, g1), and g^2 divides d, a form of degree 2 in the seed,
    so m divides d.
    """
    seed.require_nondegenerate()
    if m_max < 3:
        raise ValueError("m_max must be >= 3")
    _require_scan_bound(m_max)
    twice_d = 2 * abs(seed.cassini)  # not 0: 5 is no square, so d = 0 only at (0, 0)
    top = min(m_max, twice_d)
    report = ParityScanReport(seed, m_max)
    # 2|d| is reduced once for each block of 64 moduli, by their product,
    # so a long d is not read whole at every m
    for lo in range(3, top + 1, 64):
        block = range(lo, min(lo + 64, top + 1))
        rest = twice_d % math.prod(block)
        for m in block:
            if rest % m:
                continue
            if seed.g0 % m == 0 and seed.g1 % m == 0:
                report.skipped_degenerate.append(m)
            elif (r := pisano_period(seed, m)) % 2 == 1:
                report.odd_period_moduli.append((m, r))
    return report


def equivalent_up_to_shift(seed_a: Seed, seed_b: Seed, m: int) -> tuple[bool, int | None]:
    """Whether the two sequences mod m agree after some index shift.

    (True, r) with the least r >= 0 such that A_{r+n} = B_n (mod m) for
    all n, else (False, None).  A residue pair determines the whole
    sequence, so r counts the steps from (A_0, A_1) to (B_0, B_1) on A's
    orbit, found by a baby-step giant-step search over A's period
    (``pisano_period``, under its budgets) with a table of about
    sqrt(period) pairs, under ``PERIOD_TABLE_CAP``.  Equal periods follow:
    the two sequences then share one orbit.
    """
    if m < 2:
        raise ValueError("modulus m must be >= 2")
    for s in (seed_a, seed_b):
        if s.g0 % m == 0 and s.g1 % m == 0:
            raise ValueError(f"seed {s} is degenerate mod {m}")
    start = (seed_a.g0 % m, seed_a.g1 % m)
    target = (seed_b.g0 % m, seed_b.g1 % m)
    if start == target:
        return True, 0
    r = _shift_steps(start, target, m, pisano_period(seed_a, m))
    return (False, None) if r is None else (True, r)
