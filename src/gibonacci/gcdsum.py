"""The GCD of all sums of k consecutive Gibonacci numbers.

Three independent routes to the same value:

* ``gcd_sum`` -- the closed formula gcd(G_{k+1} - G_1, G_{k+2} - G_2),
  read mod 2|d| (d the Cassini constant) at odd k, and at even k at the
  balanced index where both differences are half-size, both pairs read
  from one doubling chain;
* ``gcd_sum_bruteforce`` -- the gcd of two actual window sums, which
  already pin the value down;
* ``gcd_sum_lcm`` -- lcm of the moduli m whose period divides k: one
  check that the period at the closed-formula value divides k, or,
  given a bound, a scan of every modulus up to it, read from one period
  table.

``classify`` predicts the value from k mod 12 and the seed parameters
and always carries the closed-formula value alongside for comparison.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Any, NamedTuple

from .pisano import period_from_multiple, period_table
from .sequences import Seed, _number_name, fib_pair, gib_from_fib, gib_pair, window_sum


class Method(Enum):
    CLOSED_GCD = "closed_gcd"
    BRUTE_FORCE = "brute_force"
    LCM_PERIODS = "lcm_periods"


class GcdSumResult(NamedTuple):
    seed: Seed
    k: int
    value: Any  # an int, or zero's number type at even k (``gcd_sum``)
    method: Method
    partial: bool = False  # bounded scans below the candidate are lower bounds


def _check_args(seed: Seed, k: int) -> None:
    seed.require_nondegenerate()
    if k < 1:
        raise ValueError("k must be >= 1 (a sum over an empty window has no gcd)")


def gcd_sum(seed: Seed, k: int, *, zero: Any = 0) -> GcdSumResult:
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
    The value is an int at odd k, whatever ``zero`` is.

    Even k: read at the balanced index n = -j, j = k/2, where both
    differences have about half the bits of those at n = 1.  Both pairs,
    at -j and at j, come from one doubling chain: one ``fib_pair(j)``
    call, read at both signs by ``gib_from_fib``.  The chain runs on
    ``zero``'s number type (see ``fib_pair``), and so does the gcd:
    ``math.gcd`` on ints, and otherwise Euclid's loop, whose every step
    is one division, subquadratic in libmpdec.  The loop is short.
    From G_n = G_0 F_{n-1} + G_1 F_n and F_{-n} = (-1)^{n+1} F_n, the two
    differences are

    * (2 G_1 - G_0) F_j and (2 G_0 + G_1) F_j for even j,
    * G_0 L_j and G_1 L_j for odd j,

    so Euclid runs on two numbers of absolute value at most
    3 max(|G_0|, |G_1|), scaled by F_j or L_j: by Lame's bound, at most about
    1.44 log2(3 max(|G_0|, |G_1|)) + 2 divisions.  The lemma only bounds
    that cost: the gcd is taken of the two differences as computed, never
    of a factored form, so this route stays independent of ``classify``'s
    table.

    Valid for any nondegenerate seed, coprime or not.  Every term, hence
    every difference, is linear in the seed, so for d >= 1 the value for
    d (G_0, G_1) is d times the value for (G_0, G_1).

    Corollary: the value W(k) is a strong divisibility sequence,
    W(gcd(k, k')) = gcd(W(k), W(k')), for any nondegenerate seed.  m
    divides W(k) exactly when it divides every D_n, that is when the
    sequence mod m repeats after k steps, so exactly when its period mod m
    divides k.  Hence m divides W(gcd(k, k')) exactly when that period
    divides both k and k', exactly when m divides both W(k) and W(k'):
    the two sides have the same divisors.  At even k and odd k' this ties
    the balanced chain to the chain mod 2|d|.
    """
    _check_args(seed, k)
    if k % 2:
        m = 2 * abs(seed.cassini)
        g_k1, g_k2 = gib_pair(seed, k + 1, m)
        value = math.gcd(g_k1 - seed.g1, g_k2 - seed.g0 - seed.g1, m)
    else:
        value = _balanced_gcd(seed, k // 2, *fib_pair(k // 2, zero=zero))
    return GcdSumResult(seed, k, value, Method.CLOSED_GCD)


def _balanced_gcd(seed: Seed, j: int, f: Any, f_next: Any) -> Any:
    """The k = 2j window GCD, gcd(G_j - G_{-j}, G_{j+1} - G_{1-j}), from
    (F_j, F_{j+1}), in their number type (see ``gcd_sum``).  Ints take
    ``math.gcd``: Euclid's loop on ints ran 9 to 16 times slower, 2.2-2.8
    against 0.15-0.24 ms for random 57-bit seeds at k = 10^6 (Python
    3.11.7)."""
    g_lo, g_lo1 = gib_from_fib(seed.g0, seed.g1, -j, f, f_next)
    g_hi, g_hi1 = gib_from_fib(seed.g0, seed.g1, j, f, f_next)
    a, b = g_hi - g_lo, g_hi1 - g_lo1
    if isinstance(a, int):
        return math.gcd(a, b)
    while b:
        a, b = b, a % b
    return abs(a)


#: The largest k that the brute-force route and ``applications.squares_gcd``
#: take.  Both end in a big-integer gcd of full-size terms, about 0.69 k bits
#: for the brute route's two window sums and 1.39 k bits for the squares'
#: window products, and that gcd grows with the square of the size: (1,4)
#: at k = 10^6 takes about 1 s by the brute route, and the Fibonacci
#: squares 2.7 to 3.5 s (Python 3.11.7, 2 vCPUs).
BRUTE_FORCE_INDEX_CAP = 2**20

#: The largest k that ``gcd_sum_lcm`` takes, bounded or not.  At even k its
#: one check runs a chain of log2 k doublings mod the value, of about 0.35 k
#: bits, and CPython's int division, which reduces each square, is
#: quadratic in the size, so the time grows with about the square of k.  As
#: whole processes, ``gcd-sum --method lcm`` took 1.90 s at k = 2*10^6,
#: 3.35 s at this k and 3.75 s at 2.8*10^6, where ``classify --k
#: 193000000``, about the largest even k under the CLI's output cap, took
#: 3.56-3.67 s (medians of 3 runs, Python 3.11.7, 2 vCPUs).
LCM_ROUTE_INDEX_CAP = 27 * 10**5


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
        raise ValueError(f"brute-force route refuses k = {_number_name(k, 'value')}: "
                         f"k is over BRUTE_FORCE_INDEX_CAP = {BRUTE_FORCE_INDEX_CAP}")
    value = math.gcd(window_sum(seed, 1, k), window_sum(seed, 2, k))
    return GcdSumResult(seed, k, value, Method.BRUTE_FORCE)


def gcd_sum_lcm(seed: Seed, k: int, bound: int | None = None) -> GcdSumResult:
    """LCM-over-periods characterization of the GCD of window sums.

    Without a bound: take the closed-formula candidate v and check that
    the period of the seed mod v divides k.  Requires a coprime seed:
    under that convention the biconditional "period mod m divides k <=>
    m divides v" holds, so every counted modulus divides v.  The counted
    set { m : period mod m divides k } is closed under lcm, because the
    period mod lcm(a, b) is the lcm of the periods mod a and mod b (the
    CRT lemma of ``period_table``, through the prime powers of a and b),
    so its lcm is itself a member.  Hence the lcm over the counted
    divisors of v equals v exactly when the period mod v divides k.  The
    period divides k exactly when M^k u = u mod v, with M the step
    matrix and u the seed: one modular chain (``period_from_multiple``
    with no primes to strip), with no walk and no factoring, whose
    failure is ``pisano._order``'s AssertionError.

    With a bound: lcm over all m <= bound with period dividing k; any
    nondegenerate seed is allowed.  The periods come from one
    ``period_table``, where a modulus dividing both seed entries reads as
    period 1: it divides every term difference, hence every window sum,
    so it always counts.  A bound above ``SCAN_MODULUS_CAP`` is refused
    before the table is built.  This is a genuinely independent route
    but only a lower bound when bound < v, in which case the result is
    flagged partial (v is read from ``gcd_sum``).

    Bounded or not, k above ``LCM_ROUTE_INDEX_CAP`` is a ValueError,
    raised before any table or chain.
    """
    _check_args(seed, k)
    if k > LCM_ROUTE_INDEX_CAP:
        raise ValueError(f"lcm route refuses k = {_number_name(k, 'value')}: "
                         f"k is over LCM_ROUTE_INDEX_CAP = {LCM_ROUTE_INDEX_CAP}")
    if bound is None:
        seed.require_coprime()
        candidate = gcd_sum(seed, k).value
        period_from_multiple(seed, candidate, k)  # raises unless the period divides k
        return GcdSumResult(seed, k, candidate, Method.LCM_PERIODS)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    periods = period_table(seed, bound)
    value = math.lcm(*(m for m in range(1, bound + 1) if k % periods[m] == 0))
    return GcdSumResult(seed, k, value, Method.LCM_PERIODS,
                        partial=bound < gcd_sum(seed, k).value)


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


class Classification(NamedTuple):
    """Predicted vs. actual GCD of k-window sums, by residue of k mod 12.

    ``predicted`` is None exactly in the table's gap, odd k with a
    non-unit Cassini constant, where the summary table makes no claim.
    At even k both values are in the number type of ``classify``'s zero.
    """

    seed: Seed
    k: int
    residue_mod_12: int
    case_row: CaseRow
    predicted: Any
    footnote: Footnote
    actual: Any


def classify(seed: Seed, k: int, *, zero: Any = 0) -> Classification:
    """Classify (seed, k) per the k mod 12 case split, split once on k's parity.

    Requires a coprime seed; for any other, divide out gcd(g0, g1) first
    (the value then scales by it).  Odd k reads ``actual`` from ``gcd_sum``.
    Where |d| = 1 (d the Cassini constant) it predicts gcd(2, F_k): 2 in
    row 3, 9 (3 divides k), 1 in row 1, 5, 7, 11; a value for every seed
    would change this branch alone.  Where |d| != 1 the prediction is
    None, the table's gap.  Even k runs one chain, ``fib_pair(k // 2)`` on
    ``zero``'s number type, read for ``actual`` as in ``gcd_sum`` and for
    the prediction: delta F_{k/2} in row 0, 4, 8 (4 divides k), else
    L_{k/2} = 2 F_{k/2+1} - F_{k/2} in row 2, 6, 10.
    """
    _check_args(seed, k)
    seed.require_coprime()
    if k % 2:
        actual = gcd_sum(seed, k).value
        row = CaseRow.ROW_39 if k % 3 == 0 else CaseRow.ROW_15711
        if abs(seed.cassini) == 1:
            predicted = 2 if row is CaseRow.ROW_39 else 1  # gcd(2, F_k)
            footnote = Footnote.D_IS_UNIT
        else:
            predicted = None
            footnote = Footnote.D_NOT_UNIT
    else:
        f, f_next = fib_pair(k // 2, zero=zero)
        actual = _balanced_gcd(seed, k // 2, f, f_next)
        if k % 4 == 0:
            row = CaseRow.ROW_048
            predicted = seed.delta * f
            footnote = Footnote.DELTA_IS_1 if seed.delta == 1 else Footnote.DELTA_IS_5
        else:
            row = CaseRow.ROW_2610
            predicted = 2 * f_next - f  # L_{k/2}
            footnote = Footnote.NONE
    return Classification(seed, k, k % 12, row, predicted, footnote, actual)
