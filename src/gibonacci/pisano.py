"""Generalized Pisano periods: Gibonacci sequences reduced modulo m.

The period of seed (g0, g1) modulo m is the least r >= 1 with
G_r = g0 and G_{r+1} = g1 (mod m).  The step map on residue pairs is
invertible, so the residue sequence is purely periodic and the search
always terminates within m^2 steps.  ``pisano_period`` is the only way
in to that walk; the parity scan and the lcm route call it.  The period
is also the least window length whose sums m always divides.  Shift
equivalence needs no period: two sequences agree mod m up to a shift
exactly when their residue pairs lie on one orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .sequences import Seed

# Period depends only on (g0 mod m, g1 mod m, m); scans over m reuse this.
# Plain dict: single-interpreter reads/writes are atomic, and correctness
# never depends on a hit.
_period_cache: dict[tuple[int, int, int], int] = {}


def clear_period_cache() -> None:
    _period_cache.clear()


def _residue_period(a: int, b: int, m: int) -> int:
    """Least r >= 1 returning the residue pair (a, b) to itself mod m.

    Requires m >= 2, 0 <= a, b < m and (a, b) != (0, 0); only
    ``pisano_period`` calls it, after checking exactly that.
    """
    key = (a, b, m)
    cached = _period_cache.get(key)
    if cached is not None:
        return cached
    x, y = a, b
    r = 0
    cap = m * m
    while True:
        x, y = y, (x + y) % m
        r += 1
        if x == a and y == b:
            break
        if r > cap:  # pair space has m^2 states and the map is a bijection
            raise AssertionError("residue pair failed to cycle within m^2 steps")
    _period_cache[key] = r
    return r


def pisano_period(seed: Seed, m: int) -> int:
    """Period of the seed's Gibonacci sequence modulo m.

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
