"""The GCD of all sums of k consecutive Gibonacci numbers.

Three independent routes to the same value:

* ``gcd_sum`` -- the closed formula gcd(G_{k+1} - G_1, G_{k+2} - G_2),
  evaluated at the balanced index where both differences are half-size;
* ``gcd_sum_bruteforce`` -- the gcd of finitely many actual window sums
  (two windows already pin the value down);
* ``gcd_sum_lcm`` -- lcm of the moduli m whose period divides k: one
  period at the closed-formula value, or, given a bound, a scan of
  every modulus up to it.

``classify`` predicts the value from k mod 12 and the seed parameters
and always carries the closed-formula value alongside for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .pisano import pisano_period
from .sequences import Seed, fib, gib_pair, lucas, seed_invariants, window_sum


class Method(Enum):
    CLOSED_GCD = "closed_gcd"
    BRUTE_FORCE = "brute_force"
    LCM_PERIODS = "lcm_periods"


@dataclass(frozen=True)
class GcdSumResult:
    seed: Seed
    k: int
    value: int
    method: Method
    partial: bool = False  # bounded scans below the candidate are lower bounds


def _check_args(seed: Seed, k: int) -> None:
    seed.require_nondegenerate()
    if k < 1:
        raise ValueError("k must be >= 1 (a sum over an empty window has no gcd)")


def gcd_sum(seed: Seed, k: int) -> GcdSumResult:
    """Closed formula: gcd(G_{k+1} - G_1, G_{k+2} - G_2), read at n = -(k // 2).

    The differences D_n = G_{n+k} - G_n obey the Gibonacci recurrence for
    every integer n, and gcd(a, b) = gcd(b, a + b), so gcd(D_n, D_{n+1})
    is the same at every n.  At n = 1 it is the formula above.  At the
    balanced index n = -(k // 2) both differences have about half the bits
    of those at n = 1, which makes the gcd far cheaper for large k.

    Valid for any nonzero integer seed, coprime or not.
    """
    _check_args(seed, k)
    n = -(k // 2)
    g_lo, g_lo1 = gib_pair(seed, n)
    g_hi, g_hi1 = gib_pair(seed, n + k)
    value = math.gcd(g_hi - g_lo, g_hi1 - g_lo1)
    return GcdSumResult(seed, k, value, Method.CLOSED_GCD)


def gcd_sum_bruteforce(seed: Seed, k: int, num_windows: int = 10) -> GcdSumResult:
    """GCD of the window sums starting at n = 1 .. num_windows.

    Every window sum is an integer combination F_{n-1} a + F_n b of the
    two closed-formula arguments, so two windows already determine the
    full GCD; more windows only re-confirm it.
    """
    _check_args(seed, k)
    if num_windows < 2:
        raise ValueError("num_windows must be >= 2")
    value = 0
    for n in range(1, num_windows + 1):
        value = math.gcd(value, window_sum(seed, n, k))
    return GcdSumResult(seed, k, value, Method.BRUTE_FORCE)


def _modulus_counts(seed: Seed, m: int, k: int) -> bool:
    """Whether m belongs to { m : period of seed mod m divides k }.

    A modulus dividing both seed entries divides every term difference,
    hence every window sum; it always belongs.
    """
    return seed.g0 % m == 0 and seed.g1 % m == 0 or k % pisano_period(seed, m) == 0


def gcd_sum_lcm(seed: Seed, k: int, bound: int | None = None) -> GcdSumResult:
    """LCM-over-periods characterization of the GCD of window sums.

    Without a bound: take the closed-formula candidate v and find one
    period, that of the seed mod v.  Requires a coprime seed: under that
    convention the biconditional "period mod m divides k <=> m divides v"
    holds, so every counted modulus divides v.  The counted set
    { m : period mod m divides k } is closed under lcm, because the
    period mod lcm(a, b) is the lcm of the periods mod a and mod b, so
    its lcm is itself a member.  Hence the lcm over the counted divisors
    of v equals v exactly when the period mod v divides k, and a failure
    raises AssertionError.  A right v has a period of at most k: v
    divides G_{k+1} - G_1 and G_{k+2} - G_2, so the residue pair
    (G_1, G_2) mod v recurs after k steps.  The period kernel's first
    phase walks up to min(isqrt(6v) + 1, ``PERIOD_TABLE_CAP``) steps.
    The first bound exceeds k at all but small k (v grows like
    phi^(k/2)), so it finds that period with no table.  A period over
    the cap, such as the Fibonacci seed's at even k above it (exactly
    k), is refused with a ValueError after those steps.

    With a bound: lcm over all m <= bound with period dividing k; any
    nondegenerate seed is allowed.  This is a genuinely independent
    route but only a lower bound when bound < v, in which case the
    result is flagged partial.
    """
    _check_args(seed, k)
    candidate = gcd_sum(seed, k).value
    if bound is None:
        seed.require_coprime()
        if not _modulus_counts(seed, candidate, k):
            raise AssertionError(
                f"lcm over periods is not the closed-formula value {candidate}: "
                f"the period mod {candidate} does not divide k = {k}"
            )
        return GcdSumResult(seed, k, candidate, Method.LCM_PERIODS)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    value = 1
    for m in range(1, bound + 1):
        if _modulus_counts(seed, m, k):
            value = math.lcm(value, m)
    return GcdSumResult(seed, k, value, Method.LCM_PERIODS, partial=bound < candidate)


@dataclass(frozen=True)
class ReducedSeed:
    """Common factor d = gcd(g0, g1) and the coprime seed it scales."""

    d: int
    reduced: Seed


def reduce_seed(seed: Seed) -> ReducedSeed:
    """Factor a seed as d times a coprime seed.

    The GCD of window sums scales the same way: the value for the
    original seed is d times the value for the reduced seed.
    """
    seed.require_nondegenerate()
    d = math.gcd(seed.g0, seed.g1)
    return ReducedSeed(d, Seed(seed.g0 // d, seed.g1 // d))


class CaseRow(Enum):
    ROW_048 = "row_048"        # k = 0, 4, 8 (mod 12)
    ROW_2610 = "row_2610"      # k = 2, 6, 10 (mod 12)
    ROW_39 = "row_39"          # k = 3, 9 (mod 12)
    ROW_15711 = "row_15711"    # k = 1, 5, 7, 11 (mod 12)


class Footnote(Enum):
    DELTA_IS_1 = "delta_is_1"
    DELTA_IS_5 = "delta_is_5"
    D_IS_UNIT = "d_is_unit"
    D_NOT_UNIT = "d_not_unit"
    NONE = "none"


@dataclass(frozen=True)
class Classification:
    """Predicted vs. actual GCD of k-window sums, by residue of k mod 12.

    ``predicted`` is None when the summary table makes no claim for the
    (seed, k) pair: odd k with non-unit Cassini constant.
    """

    seed: Seed
    k: int
    residue_mod_12: int
    case_row: CaseRow
    predicted: int | None
    footnote: Footnote
    actual: int

    @property
    def table_applies(self) -> bool:
        return self.predicted is not None


def classify(seed: Seed, k: int) -> Classification:
    """Classify (seed, k) per the k mod 12 case split.

    Requires a coprime seed; reduce non-coprime seeds first (the value
    then scales by the extracted factor d).
    """
    _check_args(seed, k)
    seed.require_coprime()
    inv = seed_invariants(seed)
    actual = gcd_sum(seed, k).value
    r = k % 12
    if r in (0, 4, 8):
        row = CaseRow.ROW_048
        predicted = inv.delta * fib(k // 2)
        footnote = Footnote.DELTA_IS_1 if inv.delta == 1 else Footnote.DELTA_IS_5
    elif r in (2, 6, 10):
        row = CaseRow.ROW_2610
        predicted = lucas(k // 2)
        footnote = Footnote.NONE
    elif r in (3, 9):
        row = CaseRow.ROW_39
        if inv.d_is_unit:
            predicted, footnote = 2, Footnote.D_IS_UNIT
        else:
            predicted, footnote = None, Footnote.D_NOT_UNIT
    else:
        row = CaseRow.ROW_15711
        if inv.d_is_unit:
            predicted, footnote = 1, Footnote.D_IS_UNIT
        else:
            predicted, footnote = None, Footnote.D_NOT_UNIT
    return Classification(seed, k, r, row, predicted, footnote, actual)
