"""The GCD of all sums of k consecutive Gibonacci numbers.

Three independent routes to the same value:

* ``gcd_sum`` -- the closed formula gcd(G_{k+1} - G_1, G_{k+2} - G_2),
  read mod 2|d| (d the Cassini constant) at odd k, and at even k at the
  balanced index where both differences are half-size;
* ``gcd_sum_bruteforce`` -- the gcd of two actual window sums, which
  already pin the value down;
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
    """Closed formula: gcd(G_{k+1} - G_1, G_{k+2} - G_2), read mod 2|d| at odd k.

    The differences D_n = G_{n+k} - G_n obey the Gibonacci recurrence for
    every integer n, and gcd(a, b) = gcd(b, a + b), so gcd(D_n, D_{n+1})
    is the same at every n.  At n = 1 it is the formula above.

    Odd k: the value divides 2|d|, with d = G_1^2 - G_0 G_1 - G_0^2 the
    Cassini constant, so it is gcd(D_1 mod 2|d|, D_2 mod 2|d|, 2|d|): the
    n = 1 form, read from one ``gib_pair`` call mod 2|d| on numbers the
    size of d (balancing the index saves nothing there).  Proof,
    with M = [[0, 1], [1, 1]] the step matrix, u = (G_0, G_1) and
    g = gcd(D_1, D_2):

    * g divides |d| times the Fibonacci value g_F.  g divides D_0 =
      D_2 - D_1 too, that is (M^k - I)[u, Mu] = 0 (mod g).  The
      matrix [u, Mu] has determinant -d; multiplying on the right by its
      adjugate gives d (M^k - I) = 0 (mod g).  The entries of M^k - I
      are F_{k-1} - 1, F_k and F_{k+1} - 1, whose gcd is g_F.
    * g_F divides 2 for odd k.  Mod g_F, F_{k+1} = F_{k+2} = 1, so
      F_k = 0, and Cassini's identity F_{k+1}^2 - F_k F_{k+2} = (-1)^k
      reads 1 = -1.

    d is nonzero for every nondegenerate seed (4d = (2 G_1 - G_0)^2 -
    5 G_0^2, and 5 G_0^2 is a square only at G_0 = 0), so the modulus is
    at least 2.  The lemma reads no row of ``classify``'s k mod 12 table.

    Even k: read at the balanced index n = -(k // 2), where both
    differences have about half the bits of those at n = 1, which makes
    the big-integer gcd far cheaper for large k.

    Valid for any nonzero integer seed, coprime or not.
    """
    _check_args(seed, k)
    if k % 2:
        m = 2 * abs(seed_invariants(seed).d)
        g_k1, g_k2 = gib_pair(seed, k + 1, m)
        value = math.gcd(g_k1 - seed.g1, g_k2 - seed.g0 - seed.g1, m)
    else:
        n = -(k // 2)
        g_lo, g_lo1 = gib_pair(seed, n)
        g_hi, g_hi1 = gib_pair(seed, n + k)
        value = math.gcd(g_hi - g_lo, g_hi1 - g_lo1)
    return GcdSumResult(seed, k, value, Method.CLOSED_GCD)


#: The largest k the brute-force route sums over.  Its two window sums are
#: full-size terms of about 0.69 k bits, and their big-integer gcd grows
#: with the square of that size: (1,4) at k = 10^6 takes about 1 s.
BRUTE_FORCE_INDEX_CAP = 2**20


def gcd_sum_bruteforce(seed: Seed, k: int) -> GcdSumResult:
    """GCD of the two window sums starting at n = 1 and n = 2.

    The window starting at n sums to D_{n+1} = G_{n+k+1} - G_{n+1}, so
    these are D_2 and D_3, and gcd(D_2, D_3) is the invariant gcd(D_n,
    D_{n+1}) of ``gcd_sum``: every other window sum is an integer
    combination of these two, so more windows could only re-confirm it.
    k above BRUTE_FORCE_INDEX_CAP is a ValueError, raised before any term
    is computed.
    """
    _check_args(seed, k)
    if k > BRUTE_FORCE_INDEX_CAP:
        raise ValueError(f"brute-force route refuses k = {k}: "
                         f"k is over BRUTE_FORCE_INDEX_CAP = {BRUTE_FORCE_INDEX_CAP}")
    value = math.gcd(window_sum(seed, 1, k), window_sum(seed, 2, k))
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
