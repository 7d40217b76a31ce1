"""Consequences of the two GCD-of-sums characterizations.

* restrictions on the prime factors of odd-k values,
* predicted Fibonacci periods at Fibonacci/Lucas moduli and the largest
  modulus attaining a given even period,
* odd-indexed Lucas numbers recovered from any coprime-seed GCD,
* the GCD of all sums of k consecutive squares, exact from three
  windows, with its closed form F_k for the Fibonacci seed at even k.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from . import gcdsum, pisano
from .factor import trial_division
from .gcdsum import CaseRow, classify, gcd_sum
from .pisano import period_from_multiple, pisano_period
from .sequences import FIBONACCI, Seed, _number_name, fib, gib_pair, lucas

#: Residues mod 20 of primes that can never divide an odd-k value.
FORBIDDEN_PRIME_RESIDUES = (3, 7, 13, 17)


class PrimeRestrictionReport(NamedTuple):
    seed: Seed
    k: int
    value: int
    offending_primes: tuple[int, ...]
    unfactored_cofactor: int  # 1 when the value factored completely
    bound: int


def prime_restriction_check(seed: Seed, k: int, prime_bound: int = 10**6) -> PrimeRestrictionReport:
    """Check that no prime = 3, 7, 13, or 17 (mod 20) divides the odd-k value.

    Trial division only, up to prime_bound; any unfactored cofactor is
    surfaced so the claim stays sound up to the bound.  A bound over
    ``pisano.TRIAL_DIVISION_BOUND`` is a ValueError, raised first.
    """
    if k % 2 == 0:
        raise ValueError("k must be odd")
    if prime_bound > pisano.TRIAL_DIVISION_BOUND:
        raise ValueError(f"trial division up to {_number_name(prime_bound, 'value')} "
                         f"refused: over TRIAL_DIVISION_BOUND = {pisano.TRIAL_DIVISION_BOUND}")
    seed.require_coprime()
    value = gcd_sum(seed, k).value
    factors, cofactor = trial_division(value, prime_bound)
    offending = tuple(
        p for p in sorted(factors) if p % 20 in FORBIDDEN_PRIME_RESIDUES
    )
    return PrimeRestrictionReport(seed, k, value, offending, cofactor, prime_bound)


class FibLucasPeriodEntry(NamedTuple):
    kind: str       # "F" or "L"
    i: int
    modulus: int
    predicted: int
    computed: int


def pisano_of_fib_lucas_moduli(i_max: int) -> list[FibLucasPeriodEntry]:
    """Fibonacci periods at Fibonacci and Lucas moduli vs. their closed forms.

    Predictions: period at modulus F_i is 2i for even i >= 4 and 4i for
    odd i >= 5; at modulus L_i it is 4i for even i >= 2 and 2i for odd
    i >= 3.  i_max runs up to 737: L_738 is over ``pisano.MODULUS_BIT_CAP``
    and is refused with a ValueError.
    """
    if i_max < 5:
        raise ValueError("i_max must be >= 5")
    entries = []
    # (kind, term, first index, period factor at even and odd i)
    for kind, term, first, factor in (("F", fib, 4, (2, 4)), ("L", lucas, 2, (4, 2))):
        for i in range(first, i_max + 1):
            m = term(i)
            entries.append(FibLucasPeriodEntry(kind, i, m, factor[i % 2] * i,
                                               pisano_period(FIBONACCI, m)))
    return entries


class MaxModulusResult(NamedTuple):
    """Largest modulus whose Fibonacci period equals the even number k."""

    k: int
    m_f: int
    predicted_form: str      # "fib_half" (k = 0 mod 4) or "lucas_half" (k = 2 mod 4)
    verified_period: int
    exhaustive_check: bool   # True when m_f was checked to equal the k-window GCD value,
                             # which every modulus with period dividing k divides


def max_modulus_for_period(k: int, exhaustive: bool = False) -> MaxModulusResult:
    """The largest m with Fibonacci period exactly k, for even k >= 6.

    The value is ``classify``'s prediction for the Fibonacci seed: F_{k/2}
    in row 048 (k = 0 mod 4) and L_{k/2} in row 2610 (k = 2 mod 4).  Its
    period is verified to be exactly k by order finding from the
    multiple k: M^k u = u, and M^(k/q) u != u for every prime q of k, the
    primes read by trial division of k.  With exhaustive=True, the result
    must also equal the k-window GCD value, ``classify``'s actual.  The
    period of m divides k iff m divides that value, so no modulus with
    period exactly k exceeds it, and the check rules out every larger
    candidate.  A failed check is an AssertionError, which names a
    modulus over 160 bits by its bit length.

    k above ``gcdsum.LCM_ROUTE_INDEX_CAP`` is refused at once with a
    ValueError: as on the lcm route, the order check runs mod a value of
    about 0.35 k bits, in time about quadratic in k.
    """
    if k % 2 != 0 or k < 6:
        raise ValueError("k must be an even integer >= 6")
    if k > gcdsum.LCM_ROUTE_INDEX_CAP:
        raise ValueError(f"max-modulus refuses k = {_number_name(k, 'value')}: "
                         f"k is over LCM_ROUTE_INDEX_CAP = {gcdsum.LCM_ROUTE_INDEX_CAP}")
    c = classify(FIBONACCI, k)
    m_f = c.predicted
    form = "fib_half" if c.case_row is CaseRow.ROW_048 else "lucas_half"
    period = period_from_multiple(FIBONACCI, m_f, k, trial_division(k, k)[0])
    if period != k:
        raise AssertionError(f"period of modulus {_number_name(m_f)} is {period}, expected {k}")
    if exhaustive and c.actual != m_f:
        raise AssertionError(f"every modulus with period dividing {k} divides "
                             f"{_number_name(c.actual)}, expected {_number_name(m_f)}")
    return MaxModulusResult(k, m_f, form, period, exhaustive)


def lucas_from_gcd(seed: Seed, j: int, *, zero: Any = 0) -> Any:
    """The odd-indexed Lucas number L_j as a GCD over any coprime seed.

    L_j is the k = 2j window GCD, gcd(G_{2j+1} - G_1, G_{2j+2} - G_2),
    whenever j is odd and the seed entries are coprime.  It comes back in
    the number type of ``zero`` (see ``gcd_sum``).
    """
    if j % 2 == 0 or j < 1:
        raise ValueError("j must be an odd positive integer")
    seed.require_coprime()
    return gcd_sum(seed, 2 * j, zero=zero).value


class SquaresGcdRecord(NamedTuple):
    """GCD of all sums of k consecutive squared terms (``squares_gcd``).

    ``value`` is exact.  ``predicted`` is F_k for the Fibonacci seed at
    even k, where it is a theorem, and None everywhere else.
    """

    seed: Seed
    k: int
    value: int
    predicted: int | None


def squares_gcd(seed: Seed, k: int) -> SquaresGcdRecord:
    """GCD of every sum W_n = G_n^2 + ... + G_{n+k-1}^2, n >= 1, from three windows.

    G_i^2 = G_i G_{i+1} - G_{i-1} G_i, because G_{i+1} - G_{i-1} = G_i, so
    each window telescopes: W_n = G_{n+k-1} G_{n+k} - G_{n-1} G_n.

    The squares obey x_{n+3} = 2 x_{n+2} + 2 x_{n+1} - x_n (characteristic
    polynomial (x^2 - 3x + 1)(x + 1), whose roots phi^2, phi^-2 and -1 are
    the products of two roots of x^2 - x - 1), and so does W_n, a sum of
    shifted squares.  The coefficients are integers, so every W_n is an
    integer combination of W_1, W_2 and W_3.  Hence gcd(W_1, W_2, W_3)
    divides every window, and being the gcd of three of them, it is the
    gcd of all.  Two windows are not enough: for seed (1, 0) at k = 5 the
    windows are 15, 40 and 103.  At k = 0 every window is 0, and so is
    the value.

    Theorem: for the Fibonacci seed at even k the value is F_k, returned
    as ``predicted``.  F_x F_{x+1} = (L_{2x+1} - (-1)^x)/5, and for even k
    L_{a+2k} - L_a = 5 F_k F_{a+k}; together they give W_n =
    F_{n+k-1} F_{n+k} - F_{n-1} F_n = F_k F_{2n+k-1}.  So the value is
    F_k gcd(F_{k+1}, F_{k+3}, F_{k+5}), and gcd(F_{k+1}, F_{k+3}) =
    F_{gcd(k+1, 2)} = F_1 = 1.

    One ``gib_pair`` call gives (G_k, G_{k+1}), which is (F_k, F_{k+1})
    for the Fibonacci seed; two additions, three products and one gcd
    finish.  k above ``gcdsum.BRUTE_FORCE_INDEX_CAP`` is refused with a
    ValueError before the chain: like the brute route, this one pays a
    quadratic big-integer gcd of full-size terms.
    """
    seed.require_nondegenerate()
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > gcdsum.BRUTE_FORCE_INDEX_CAP:
        raise ValueError(f"squares refuses k = {_number_name(k, 'value')}: "
                         f"k is over BRUTE_FORCE_INDEX_CAP = {gcdsum.BRUTE_FORCE_INDEX_CAP}")
    g0, g1 = seed.g0, seed.g1
    g2, g3 = g0 + g1, g0 + 2 * g1
    gk, gk1 = gib_pair(seed, k)
    gk2 = gk + gk1
    gk3 = gk1 + gk2
    value = math.gcd(gk * gk1 - g0 * g1, gk1 * gk2 - g1 * g2, gk2 * gk3 - g2 * g3)
    return SquaresGcdRecord(seed, k, value, gk if seed == FIBONACCI and k % 2 == 0 else None)
