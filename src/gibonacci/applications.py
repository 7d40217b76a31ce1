"""Consequences of the two GCD-of-sums characterizations.

* restrictions on the prime factors of odd-k values,
* predicted Fibonacci periods at Fibonacci/Lucas moduli and the largest
  modulus attaining a given even period,
* odd-indexed Lucas numbers recovered from any coprime-seed GCD,
* the GCD of all sums of k consecutive squares, exact from three
  windows; only its closed form (F_k for the Fibonacci seed at even k)
  is a conjecture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import pisano
from .factor import trial_division
from .gcdsum import gcd_sum
from .pisano import pisano_period
from .sequences import FIBONACCI, Seed, fib, gib_pair, lucas

#: Residues mod 20 of primes that can never divide an odd-k value.
FORBIDDEN_PRIME_RESIDUES = (3, 7, 13, 17)


@dataclass(frozen=True)
class PrimeRestrictionReport:
    seed: Seed
    k: int
    value: int
    offending_primes: tuple[int, ...]
    unfactored_cofactor: int  # 1 when the value factored completely
    bound: int

    @property
    def clean(self) -> bool:
        return not self.offending_primes


def prime_restriction_check(seed: Seed, k: int, prime_bound: int = 10**6) -> PrimeRestrictionReport:
    """Check that no prime = 3, 7, 13, or 17 (mod 20) divides the odd-k value.

    Trial division only, up to prime_bound; any unfactored cofactor is
    surfaced so the claim stays sound up to the bound.
    """
    if k % 2 == 0:
        raise ValueError("k must be odd")
    seed.require_coprime()
    value = gcd_sum(seed, k).value
    factors, cofactor = trial_division(value, prime_bound)
    offending = tuple(
        p for p in sorted(factors) if p % 20 in FORBIDDEN_PRIME_RESIDUES
    )
    return PrimeRestrictionReport(seed, k, value, offending, cofactor, prime_bound)


@dataclass(frozen=True)
class FibLucasPeriodEntry:
    kind: str       # "F" or "L"
    i: int
    modulus: int
    predicted: int
    computed: int

    @property
    def matches(self) -> bool:
        return self.predicted == self.computed


@dataclass
class FibLucasPeriodReport:
    i_max: int
    entries: list[FibLucasPeriodEntry] = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        return all(e.matches for e in self.entries)


def pisano_of_fib_lucas_moduli(i_max: int) -> FibLucasPeriodReport:
    """Fibonacci periods at Fibonacci and Lucas moduli vs. their closed forms.

    Predictions: period at modulus F_i is 2i for even i >= 4 and 4i for
    odd i >= 5; at modulus L_i it is 4i for even i >= 2 and 2i for odd
    i >= 3.
    """
    if i_max < 5:
        raise ValueError("i_max must be >= 5")
    report = FibLucasPeriodReport(i_max)
    for i in range(4, i_max + 1):
        predicted = 2 * i if i % 2 == 0 else 4 * i
        m = fib(i)
        report.entries.append(
            FibLucasPeriodEntry("F", i, m, predicted, pisano_period(FIBONACCI, m))
        )
    for i in range(2, i_max + 1):
        predicted = 4 * i if i % 2 == 0 else 2 * i
        m = lucas(i)
        report.entries.append(
            FibLucasPeriodEntry("L", i, m, predicted, pisano_period(FIBONACCI, m))
        )
    return report


@dataclass(frozen=True)
class MaxModulusResult:
    """Largest modulus whose Fibonacci period equals the even number k."""

    k: int
    m_f: int
    predicted_form: str      # "fib_half" (k = 0 mod 4) or "lucas_half" (k = 2 mod 4)
    verified_period: int
    exhaustive_check: bool   # True when m_f was checked to equal the k-window GCD value,
                             # which every modulus with period dividing k divides


def max_modulus_for_period(k: int, exhaustive: bool = False) -> MaxModulusResult:
    """The largest m with Fibonacci period exactly k, for even k >= 6.

    The value is F_{k/2} when k = 0 (mod 4) and L_{k/2} when k = 2
    (mod 4); its period is verified directly.  With exhaustive=True,
    the result must also equal the k-window GCD value.  The period of m
    divides k iff m divides that value, so no modulus with period exactly
    k exceeds it, and the check rules out every larger candidate without
    a walk.

    The modulus has period exactly k, so at k above ``PERIOD_TABLE_CAP``
    the period kernel would walk the cap's worth of steps and then refuse
    it; that ValueError is raised at once instead.
    """
    if k % 2 != 0 or k < 6:
        raise ValueError("k must be an even integer >= 6")
    if k > pisano.PERIOD_TABLE_CAP:
        raise ValueError(
            f"period k = {k} exceeds PERIOD_TABLE_CAP = {pisano.PERIOD_TABLE_CAP} steps, "
            f"so its modulus is refused without a walk"
        )
    if k % 4 == 0:
        m_f, form = fib(k // 2), "fib_half"
    else:
        m_f, form = lucas(k // 2), "lucas_half"
    period = pisano_period(FIBONACCI, m_f)
    if period != k:
        raise AssertionError(f"period of modulus {m_f} is {period}, expected {k}")
    if exhaustive:
        bound = gcd_sum(FIBONACCI, k).value
        if bound != m_f:
            raise AssertionError(
                f"every modulus with period dividing {k} divides {bound}, expected {m_f}"
            )
    return MaxModulusResult(k, m_f, form, period, exhaustive)


def lucas_from_gcd(seed: Seed, j: int) -> int:
    """The odd-indexed Lucas number L_j as a GCD over any coprime seed.

    L_j is the k = 2j window GCD, gcd(G_{2j+1} - G_1, G_{2j+2} - G_2),
    whenever j is odd and the seed entries are coprime.
    """
    if j % 2 == 0 or j < 1:
        raise ValueError("j must be an odd positive integer")
    seed.require_coprime()
    return gcd_sum(seed, 2 * j).value


@dataclass(frozen=True)
class SquaresGcdRecord:
    """GCD of all sums of k consecutive squared terms.

    ``empirical_value`` is exact, read from ``windows_used`` = 3 windows
    (``squares_gcd``).  Only its closed form is conjectural: for the
    Fibonacci seed and even k the conjectured value F_k is attached for
    comparison.
    """

    seed: Seed
    k: int
    empirical_value: int
    windows_used: int
    conjectured: int | None
    matches_conjecture: bool | None


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
    windows are 15, 40 and 103.

    One ``gib_pair`` call gives (G_k, G_{k+1}); two additions, three
    products and one gcd finish.  k = 0 returns 0 (the empty sum).
    """
    seed.require_nondegenerate()
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return SquaresGcdRecord(seed, 0, 0, 0, None, None)
    g0, g1 = seed.g0, seed.g1
    g2, g3 = g0 + g1, g0 + 2 * g1
    gk, gk1 = gib_pair(seed, k)
    gk2 = gk + gk1
    gk3 = gk1 + gk2
    value = math.gcd(gk * gk1 - g0 * g1, gk1 * gk2 - g1 * g2, gk2 * gk3 - g2 * g3)
    conjectured = None
    matches = None
    if seed == FIBONACCI and k % 2 == 0:
        conjectured = fib(k)
        matches = value == conjectured
    return SquaresGcdRecord(seed, k, value, 3, conjectured, matches)
