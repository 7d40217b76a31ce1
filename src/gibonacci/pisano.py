"""Generalized Pisano periods: Gibonacci sequences reduced modulo m.

The period of seed (g0, g1) modulo m is the least r >= 1 with
G_r = g0 and G_{r+1} = g1 (mod m).  The step map on residue pairs is
invertible, so the residue sequence is purely periodic, with a period of
at most m^2 - 1.  ``pisano_period`` is the only way in to the period
kernel; the parity scan and the lcm route call it.

The kernel is a baby-step giant-step search in two phases, with
s = isqrt(6m) + 1.  Phase 1 walks up to s steps one term at a time and
returns a period of at most s without building any table.  Phase 2
stores the s baby-step pairs and applies M^s mod m (giant steps, M the
step matrix) until one lands on a stored pair.  The period of every seed
divides the Fibonacci period pi_F(m), since M^pi_F(m) = I, and
pi_F(m) <= 6m (Freyd and Brown), so about s giant steps suffice and a
period costs at most about 3 sqrt(6m) steps in all.  The bound 6m only
sizes s: the giant steps run on to the m^2 state bound, so no answer
relies on it.  Neither phase walks or stores more than
``PERIOD_TABLE_CAP`` pairs; a period that needs more is refused with a
ValueError.  The kernel keeps no state between calls: every call
computes its period.

The period is also the least window length whose sums m always divides.
Shift equivalence needs no period: two sequences agree mod m up to a
shift exactly when their residue pairs lie on one orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .sequences import FIBONACCI, Seed, gib_pair

# The most residue pairs the period kernel walks in phase 1 or stores in
# phase 2.  A table this full holds about 30 MB and covers every m up to
# about 1.1e10 (s = isqrt(6m) + 1 <= 2^18).
PERIOD_TABLE_CAP = 2**18


def clear_period_cache() -> None:
    """Nothing to clear: the period kernel keeps no state between calls."""


def _residue_period(a: int, b: int, m: int) -> int:
    """Least r >= 1 returning the residue pair (a, b) to itself mod m.

    Requires m >= 2, 0 <= a, b < m and (a, b) != (0, 0); only
    ``pisano_period`` calls it, after checking exactly that.  Raises
    ValueError when the period exceeds both s = isqrt(6m) + 1 and
    ``PERIOD_TABLE_CAP``.
    """
    s = math.isqrt(6 * m) + 1
    # Phase 1: a period of at most s returns here, with no table to build;
    # the lcm route's period does at all but small k.
    x, y = a, b
    for r in range(1, min(s, PERIOD_TABLE_CAP) + 1):
        x, y = y, (x + y) % m
        if x == a and y == b:
            return r
    if s > PERIOD_TABLE_CAP:
        name = m if m.bit_length() <= 160 else f"a {m.bit_length()}-bit modulus"
        raise ValueError(
            f"period mod {name} exceeds PERIOD_TABLE_CAP = {PERIOD_TABLE_CAP} steps, "
            f"and a longer one needs a table of isqrt(6m) + 1 pairs, over the cap"
        )
    # Phase 2: the period r exceeds s, so baby pairs 0 .. s-1 are distinct.
    # Giant step i lands on baby step j exactly when i*s - j is a return
    # time, a multiple of r; the first i with i*s >= r gives r itself.
    baby: dict[int, int] = {}
    x, y = a, b
    for j in range(s):
        baby[x * m + y] = j
        x, y = y, (x + y) % m
    f, f_next = gib_pair(FIBONACCI, s)  # M^s = [[F_{s-1}, F_s], [F_s, F_{s+1}]]
    f_prev, f, f_next = (f_next - f) % m, f % m, f_next % m
    x, y = a, b
    for i in range(1, m * m // s + 2):  # the pair space has m^2 states
        x, y = (f_prev * x + f * y) % m, (f * x + f_next * y) % m
        j = baby.get(x * m + y)
        if j is not None:
            return i * s - j
    raise AssertionError(f"residue pair ({a}, {b}) failed to cycle within {m}^2 steps")


def pisano_period(seed: Seed, m: int) -> int:
    """Period of the seed's Gibonacci sequence modulo m.

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
    seed.require_nondegenerate()
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    if m == 1:
        return 1
    a, b = seed.g0 % m, seed.g1 % m
    if a == 0 and b == 0:
        raise ValueError(f"seed {seed} is congruent to (0, 0) mod {m}; period undefined")
    return _residue_period(a, b, m)


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
    as skipped.
    """
    seed.require_nondegenerate()
    if m_max < 3:
        raise ValueError("m_max must be >= 3")
    report = ParityScanReport(seed, m_max)
    for m in range(3, m_max + 1):
        if seed.g0 % m == 0 and seed.g1 % m == 0:
            report.skipped_degenerate.append(m)
            continue
        p = pisano_period(seed, m)
        if p % 2 == 1:
            report.odd_period_moduli.append((m, p))
    return report


def equivalent_up_to_shift(seed_a: Seed, seed_b: Seed, m: int) -> tuple[bool, int | None]:
    """Whether the two sequences mod m agree after some index shift.

    (True, r) with the least r >= 0 such that A_{r+n} = B_n (mod m) for
    all n, else (False, None).  A residue pair determines the whole
    sequence, so it suffices to walk A's orbit once, from (A_0, A_1)
    until it returns, looking for B's pair (B_0, B_1).  Equal periods
    follow: the two sequences then share one orbit.
    """
    if m < 2:
        raise ValueError("modulus m must be >= 2")
    for s in (seed_a, seed_b):
        if s.g0 % m == 0 and s.g1 % m == 0:
            raise ValueError(f"seed {s} is degenerate mod {m}")
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
