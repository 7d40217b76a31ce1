"""Generalized Pisano periods: Gibonacci sequences reduced modulo m.

The period of seed (g0, g1) modulo m is the least r >= 1 with
G_r = g0 and G_{r+1} = g1 (mod m).  The step map on residue pairs is
invertible, so the residue sequence is purely periodic and the search
always terminates within m^2 steps.
"""

from __future__ import annotations

import math
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

    Accepts the all-zero pair (constant-zero residue sequence, period 1);
    callers that must reject it do so before calling.
    """
    if m == 1 or (a == 0 and b == 0):
        return 1
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

    m = 1 returns 1 by convention.  Errors if the seed reduces to
    (0, 0) mod m: the constant-zero residue sequence is excluded.
    """
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    if m == 1:
        return 1
    a, b = seed.g0 % m, seed.g1 % m
    if a == 0 and b == 0:
        raise ValueError(f"seed {seed} is congruent to (0, 0) mod {m}; period undefined")
    return _residue_period(a, b, m)


def minimal_window_length(seed: Seed, m: int) -> int:
    """Least s >= 1 such that m divides every sum of s consecutive terms.

    This is the period mod m.  A window sum starting at n >= 1 is
    G_{n+s+1} - G_{n+1}, so s qualifies exactly when G_{j+s} = G_j (mod m)
    for every j >= 2, that is when the residue pair (G_2, G_3) returns
    after s steps.  That pair lies on the seed's own orbit (the step map
    is a bijection), so the least such s is the seed's period.
    """
    if m < 2:
        raise ValueError("modulus m must be >= 2")
    return pisano_period(seed, m)


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
    """Scan m in (2, m_max] and report every modulus with an odd period."""
    if m_max < 3:
        raise ValueError("m_max must be >= 3")
    report = ParityScanReport(seed, m_max)
    for m in range(3, m_max + 1):
        if seed.g0 % m == 0 and seed.g1 % m == 0:
            report.skipped_degenerate.append(m)
            continue
        p = _residue_period(seed.g0 % m, seed.g1 % m, m)
        if p % 2 == 1:
            report.odd_period_moduli.append((m, p))
    return report


def equivalent_up_to_shift(seed_a: Seed, seed_b: Seed, m: int) -> tuple[bool, int | None]:
    """Whether the two sequences mod m agree after some index shift.

    True requires equal periods and some r in [0, period) with
    A_{r+n} = B_n (mod m) for all n; the least such r is the witness.
    A residue pair determines the whole sequence, so matching the pair
    (A_r, A_{r+1}) against (B_0, B_1) suffices.
    """
    if m < 2:
        raise ValueError("modulus m must be >= 2")
    for s in (seed_a, seed_b):
        if s.g0 % m == 0 and s.g1 % m == 0:
            raise ValueError(f"seed {s} is degenerate mod {m}")
    pa = _residue_period(seed_a.g0 % m, seed_a.g1 % m, m)
    pb = _residue_period(seed_b.g0 % m, seed_b.g1 % m, m)
    if pa != pb:
        return False, None
    target = (seed_b.g0 % m, seed_b.g1 % m)
    x, y = seed_a.g0 % m, seed_a.g1 % m
    for r in range(pa):
        if (x, y) == target:
            return True, r
        x, y = y, (x + y) % m
    return False, None


def period_lcm_compose(seed: Seed, m1: int, m2: int) -> int:
    """Period mod m1*m2 from coprime parts: lcm of the two periods.

    Asserts that the composition actually equals the directly computed
    period of the product modulus.
    """
    if math.gcd(m1, m2) != 1:
        raise ValueError(f"moduli {m1} and {m2} must be coprime")
    composed = math.lcm(pisano_period(seed, m1), pisano_period(seed, m2))
    direct = pisano_period(seed, m1 * m2)
    if composed != direct:
        raise AssertionError(
            f"lcm composition {composed} != direct period {direct} for {seed} mod {m1}*{m2}"
        )
    return composed
