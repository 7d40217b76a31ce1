"""Generalized Pisano periods: Gibonacci sequences reduced modulo m.

The period of seed (g0, g1) modulo m is the least r >= 1 with
G_r = g0 and G_{r+1} = g1 (mod m).  The step map on residue pairs is
invertible, so the residue sequence is purely periodic, with a period of
at most m^2 - 1, and the r with M^r u = u (M the step matrix, u the
residue pair) are exactly the multiples of the period.

A period is found one of two ways:

* From a known multiple n, by order finding (Cohen, *A Course in
  Computational Algebraic Number Theory*, Alg. 1.4.3):
  ``period_from_multiple`` checks M^n u = u, then strips each prime q of
  n while M^(n/q) u = u still holds.  Each test reads
  M^r = [[F_{r-1}, F_r], [F_r, F_{r+1}]] from one modular ``fib_pair``
  call, so a period costs O(Omega(n) log n) modular products and m is
  never factored.  ``period_table`` passes Wall's multiple at each prime
  power; the lcm route and ``max_modulus_for_period`` pass k.
* Without one, by a baby-step giant-step search, the kernel behind
  ``pisano_period``.  ``equivalent_up_to_shift`` asks the same kernel for
  the steps from one residue pair to another, under the same cap.

The search runs in two phases, with s = isqrt(6m) + 1.  Phase 1 walks up
to s steps one term at a time and returns a period of at most s without
building any table.  Phase 2 stores the s baby-step pairs and applies
M^s mod m (giant steps) until one lands on a stored pair.  The period of
every seed divides the Fibonacci period pi_F(m), since M^pi_F(m) = I,
and pi_F(m) <= 6m (Freyd and Brown), so about s giant steps suffice and
a period costs at most about 3 sqrt(6m) steps in all.  The bound 6m only
sizes s: the giant steps run on to the m^2 state bound, so no answer
relies on it.  Neither phase walks or stores more than
``PERIOD_TABLE_CAP`` pairs; a period that needs more is refused with a
ValueError.  No route keeps state between calls: every call computes
its period.

The period is also the least window length whose sums m always divides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .sequences import FIBONACCI, Seed, fib_pair, gib_pair

# The most residue pairs the period kernel walks in phase 1 or stores in
# phase 2.  A table this full holds about 30 MB and covers every m up to
# about 1.1e10 (s = isqrt(6m) + 1 <= 2^18).
PERIOD_TABLE_CAP = 2**18

# The largest m_max a period table covers: parity scans and the lcm route's
# bounded scan refuse more before building it.  At the cap,
# parity_scan((1, 4), 2**17) takes about 0.5 s and 21 MB peak RSS (Python 3.11.7).
SCAN_MODULUS_CAP = 2**17


def clear_period_cache() -> None:
    """Nothing to clear: the period kernel keeps no state between calls."""


def _residue_period(a: int, b: int, m: int, target: tuple[int, int] | None = None) -> int | None:
    """Least r >= 1 with M^r (a, b) = target mod m, None if the target is off
    the orbit of (a, b); the target defaults to (a, b), giving its period.

    Requires m >= 2, 0 <= a, b < m and (a, b) != (0, 0); ``pisano_period``
    and ``equivalent_up_to_shift``, the one caller with a target, check
    that.  The period of (a, b), computed first, bounds a target search.
    Raises ValueError when the period exceeds both s = isqrt(6m) + 1 and
    ``PERIOD_TABLE_CAP``.
    """
    s = math.isqrt(6 * m) + 1
    ta, tb = target or (a, b)
    bound = m * m if target is None else _residue_period(a, b, m)  # m^2 pair states
    # Phase 1: an r of at most s returns here, with no table to build;
    # the lcm route's period does at all but small k.
    x, y = a, b
    for r in range(1, min(s, bound, PERIOD_TABLE_CAP) + 1):
        x, y = y, (x + y) % m
        if x == ta and y == tb:
            return r
    if bound <= s:  # phase 1 walked the whole orbit
        return None
    if s > PERIOD_TABLE_CAP:
        name = m if m.bit_length() <= 160 else f"a {m.bit_length()}-bit modulus"
        raise ValueError(
            f"period mod {name} exceeds PERIOD_TABLE_CAP = {PERIOD_TABLE_CAP} steps, "
            f"and a longer one needs a table of isqrt(6m) + 1 pairs, over the cap"
        )
    # Phase 2: r and the period exceed s, so baby pairs M^j target, j < s, are
    # distinct.  Giant step i lands on baby step j exactly when i*s - j = r
    # modulo the period; the first i with i*s >= r gives r itself.
    baby: dict[int, int] = {}
    x, y = ta, tb
    for j in range(s):
        baby[x * m + y] = j
        x, y = y, (x + y) % m
    f, f_next = gib_pair(FIBONACCI, s, m)  # M^s = [[F_{s-1}, F_s], [F_s, F_{s+1}]]
    f_prev = (f_next - f) % m
    x, y = a, b
    for i in range(1, bound // s + 2):
        x, y = (f_prev * x + f * y) % m, (f * x + f_next * y) % m
        j = baby.get(x * m + y)
        if j is not None:
            return i * s - j
    if target is None:
        raise AssertionError(f"residue pair ({a}, {b}) failed to cycle within {m}^2 steps")
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


def pisano_period(seed: Seed, m: int) -> int:
    """Period of the seed's Gibonacci sequence modulo m, by the search kernel.

    m = 1 returns 1 by convention.  Errors on the seed (0, 0), and if
    the seed reduces to (0, 0) mod m: the constant-zero residue sequence
    is excluded.  Also a ValueError when the period exceeds
    ``PERIOD_TABLE_CAP`` and so does isqrt(6m) + 1, the table it would need.

    The period is also the least s >= 1 such that m divides every sum of
    s consecutive terms.  A window sum starting at n >= 1 is
    G_{n+s+1} - G_{n+1}, so s qualifies exactly when G_{j+s} = G_j
    (mod m) for every j >= 2, that is when the residue pair (G_2, G_3)
    returns after s steps.  That pair lies on the seed's own orbit (the
    step map is a bijection), so the least such s is the period.
    """
    a, b = _residues(seed, m)
    return 1 if m == 1 else _residue_period(a, b, m)


def _order(a: int, b: int, m: int, n: int, primes: Iterable[int]) -> int | None:
    """Order finding on the residue pair u = (a, b) mod m from the multiple n.

    None unless M^n u = u.  Otherwise the least r dividing n with
    M^r u = u whose cofactor n / r has only the given primes: with every
    prime of n, the period of u.  The return times of u are the
    multiples of its period, so stripping a prime q while M^(r/q) u = u
    leaves the period's own power of q in r.
    """
    def returns(r: int) -> bool:
        f, f_next = fib_pair(r, m)  # M^r = [[F_{r-1}, F_r], [F_r, F_{r+1}]]
        return ((f_next - f) * a + f * b) % m == a and (f * a + f_next * b) % m == b

    if not returns(n):
        return None
    for q in primes:
        while n % q == 0 and returns(n // q):
            n //= q
    return n


def period_from_multiple(seed: Seed, m: int, n: int, primes: Iterable[int] = ()) -> int | None:
    """The seed's period mod m read from a multiple n, None if it does not divide n.

    ``primes`` are the primes of n to strip (``_order``): given all of
    them, the result is the period; given none, it is n, so the call
    only tests whether the period divides n.  Errors as
    ``pisano_period`` does on the seed and m, and on n < 1.  No cap
    applies: the cost is O(Omega(n) log n) products mod m.
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
    the seed does not reduce as (0, 0), the period is found by order
    finding from the multiple p^(e-1) W(p), with W(p) Wall's multiple of
    the Fibonacci period mod p: 3 at p = 2, 20 at p = 5, p - 1 when
    p = +-1 (mod 5) and 2(p + 1) when p = +-2 (mod 5).  The primes of
    that multiple are read from the table's own smallest-prime-factor
    sieve.  Every other entry is the lcm of two earlier ones.  An m_max
    above ``SCAN_MODULUS_CAP`` is a ValueError, raised before any table
    is built, and a period that does not divide its multiple is an
    AssertionError.

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
    if m_max > SCAN_MODULUS_CAP:
        raise ValueError(f"scan of every modulus up to {m_max} refused: "
                         f"over SCAN_MODULUS_CAP = {SCAN_MODULUS_CAP}")
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
        elif seed.g0 % m == 0 and seed.g1 % m == 0:
            periods[m] = 1
        else:
            w = _wall_multiple(p)
            n = m // p * w
            periods[m] = _order(seed.g0 % m, seed.g1 % m, m, n, primes_of(w) | {p})
            if periods[m] is None:
                raise AssertionError(f"period of seed {seed} mod {m} does not divide "
                                     f"Wall's multiple {n}")
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

    Moduli dividing both seed entries have no period; they are listed
    as skipped.  The periods come from one ``period_table``, so an m_max
    above ``SCAN_MODULUS_CAP`` is refused before the scan starts.
    """
    seed.require_nondegenerate()
    if m_max < 3:
        raise ValueError("m_max must be >= 3")
    periods = period_table(seed, m_max)
    report = ParityScanReport(seed, m_max)
    for m in range(3, m_max + 1):
        if periods[m] == 1:  # the seed is (0, 0) mod m
            report.skipped_degenerate.append(m)
        elif periods[m] % 2 == 1:
            report.odd_period_moduli.append((m, periods[m]))
    return report


def equivalent_up_to_shift(seed_a: Seed, seed_b: Seed, m: int) -> tuple[bool, int | None]:
    """Whether the two sequences mod m agree after some index shift.

    (True, r) with the least r >= 0 such that A_{r+n} = B_n (mod m) for
    all n, else (False, None).  A residue pair determines the whole
    sequence, so r counts the steps from (A_0, A_1) to (B_0, B_1) on A's
    orbit, found by the period kernel under its cap.  Equal periods
    follow: the two sequences then share one orbit.
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
    r = _residue_period(*start, m, target=target)
    return (False, None) if r is None else (True, r)
