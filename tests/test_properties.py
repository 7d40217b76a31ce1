"""Property-based checks of the core arithmetic invariants."""

import math

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gibonacci.gcdsum import gcd_sum, gcd_sum_bruteforce, gcd_sum_lcm
from gibonacci.pisano import pisano_period
from gibonacci.sequences import (
    FIBONACCI,
    Seed,
    exact_decimal,
    fib,
    gib_pair,
    gib_term,
    lucas,
    window_sum,
)

from conftest import (
    gcd_sum_at_index_one,
    lcm_over_all_divisors,
    naive_fib,
    naive_gib_terms,
    period_divides_by_walk,
)

coprime_seeds = st.tuples(
    st.integers(-50, 50), st.integers(-50, 50)
).filter(lambda t: math.gcd(t[0], t[1]) == 1).map(lambda t: Seed(*t))

small_coprime_seeds = st.tuples(
    st.integers(-10, 10), st.integers(-10, 10)
).filter(lambda t: math.gcd(t[0], t[1]) == 1).map(lambda t: Seed(*t))

nonzero_seeds = st.tuples(
    st.integers(-50, 50), st.integers(-50, 50)
).filter(lambda t: t != (0, 0)).map(lambda t: Seed(*t))

hundred_digit_seeds = st.tuples(
    st.integers(-10**100, 10**100), st.integers(-10**100, 10**100)
).filter(lambda t: t != (0, 0)).map(lambda t: Seed(*t))

#: (p, r) with r a root of x^2 - x - 1 mod p^2, for primes p = +-1 mod 5.
GOLDEN_ROOTS_MOD_P2 = [(p, r) for p in (11, 19, 29, 31, 41)
                       for r in range(p * p) if (r * r - r - 1) % (p * p) == 0]


def seed_with_p2_dividing_d(p: int, r: int, g0: int, t: int) -> Seed:
    """(G_0, G_0 r + t p^2): as G_1 = G_0 r mod p^2, d = G_1^2 - G_0 G_1 - G_0^2
    = G_0^2 (r^2 - r - 1) = 0 mod p^2."""
    return Seed(g0, g0 * r + t * p * p)


p2_seeds = st.builds(
    lambda pr, g0, t: seed_with_p2_dividing_d(*pr, g0, t),
    st.sampled_from(GOLDEN_ROOTS_MOD_P2), st.integers(1, 10**6), st.integers(-10**6, 10**6),
).filter(lambda s: math.gcd(s.g0, s.g1) == 1)


@given(st.integers(-3000, 3000))
def test_fast_doubling_matches_iteration(n):
    assert fib(n) == naive_fib(n)


@given(nonzero_seeds, st.integers(-3000, 3000))
def test_gib_pair_matches_iteration(seed, n):
    terms = naive_gib_terms(seed, min(n, 0), max(n + 1, 1))
    assert gib_pair(seed, n) == (terms[n], terms[n + 1])


@given(st.integers(-500, 500))
def test_fib_lucas_double_angle(n):
    assert fib(2 * n) == fib(n) * lucas(n)


@given(nonzero_seeds, st.integers(-200, 200))
def test_gib_recurrence(seed, n):
    assert gib_term(seed, n) + gib_term(seed, n + 1) == gib_term(seed, n + 2)


@given(nonzero_seeds, st.integers(1, 40), st.integers(1, 25))
def test_window_sum_is_a_sum(seed, n, k):
    assert window_sum(seed, n, k) == sum(gib_term(seed, n + i) for i in range(k))


@given(nonzero_seeds, st.integers(1, 60))
@settings(max_examples=60)
def test_closed_formula_matches_brute_force(seed, k):
    assert gcd_sum(seed, k).value == gcd_sum_bruteforce(seed, k).value


@given(nonzero_seeds, st.integers(1, 3000))
def test_closed_formula_matches_index_one(seed, k):
    assert gcd_sum(seed, k).value == gcd_sum_at_index_one(seed, k)


@given(nonzero_seeds, st.integers(1, 48))
def test_reduction_scales_the_value(seed, k):
    d = math.gcd(seed.g0, seed.g1)
    assert gcd_sum(seed, k).value == d * gcd_sum(Seed(seed.g0 // d, seed.g1 // d), k).value


@given(coprime_seeds, st.integers(2, 60))
@settings(max_examples=60)
def test_period_window_sums_vanish(seed, m):
    p = pisano_period(seed, m)
    assert window_sum(seed, 1, p) % m == 0
    assert window_sum(seed, 7, p) % m == 0


@given(coprime_seeds, st.integers(2, 40), st.integers(1, 24))
@settings(max_examples=80)
def test_divisibility_biconditional(seed, m, k):
    divides = k % pisano_period(seed, m) == 0
    assert divides == (gcd_sum(seed, k).value % m == 0)


@given(small_coprime_seeds, st.integers(1, 150))
@settings(max_examples=60, deadline=None)
def test_lcm_route_matches_the_all_divisors_route(seed, k):
    assert gcd_sum_lcm(seed, k).value == lcm_over_all_divisors(seed, k)


@given(small_coprime_seeds, st.integers(1, 150))
@example(Seed(0, 1), 142)  # the divisor 688846502588399, a prime above 2^42
@settings(max_examples=30, deadline=None)
def test_period_divides_k_on_divisors_as_the_walk_says(seed, k):
    # every divisor is answered: one that trial division leaves unfactored
    # is at least (B + 1)^2, and a period dividing k is found by the walk
    for d in sympy.divisors(gcd_sum(seed, k).value):
        assert (k % pisano_period(seed, d) == 0) == period_divides_by_walk(seed, d, k), d


def window_gcd(seed, k, zero=0):
    return gcd_sum(seed, k, zero=zero).value


@given(st.one_of(nonzero_seeds, hundred_digit_seeds, p2_seeds),
       st.integers(1, 300), st.integers(1, 60), st.integers(1, 60))
@settings(deadline=None)
def test_the_window_gcd_is_a_strong_divisibility_sequence(seed, a, b, c):
    # k = ab and k' = ac share a, so their gcd is rarely 1; an even k beside
    # an odd k' ties the balanced chain to the chain mod 2|d|
    k, k2 = a * b, a * c
    assert window_gcd(seed, math.gcd(k, k2)) == math.gcd(window_gcd(seed, k), window_gcd(seed, k2))


def test_p2_seeds_have_p2_dividing_d():
    for p, r in GOLDEN_ROOTS_MOD_P2:
        seed = seed_with_p2_dividing_d(p, r, 1000003, -7)
        assert seed.cassini % (p * p) == 0 and math.gcd(seed.g0, seed.g1) == 1


def euclid(a, b):
    """gcd by Euclid's loop, for ints and Decimals alike."""
    while b:
        a, b = b, a % b
    return abs(a)


#: (seed, k, k') at even k of millions: beside an odd k', whose value
#: divides 2|d| at any size, or a small even k', so the gcd of the two
#: values is cheap.  A chain at OUTPUT_BIT_CAP's index, k near 1.9*10^8,
#: takes seconds on Decimal and more on ints, so these stay 20-100 times
#: below it.
LARGE_PAIRS = [
    (FIBONACCI, 2**7 * 3**4 * 5**3 * 7, 3**4 * 7 * (10**100 + 3)),
    (Seed(1, 4), 2**6 * 3**3 * 5**2 * 7 * 11, 2**3 * 3**2 * 5 * 7 * 13),
    (seed_with_p2_dividing_d(11, 37, 1000003, 7), 2 * 3**2 * 5**3 * 7 * 11**2,
     5 * 11 * (10**60 + 1)),  # 121 | d, and the value at gcd = 55 is 121
    (Seed(10**99 + 289, 3 * 10**99 + 4), 2**4 * 3**3 * 5**3 * 7**2,
     3**3 * 5**2 * 7 * (10**50 + 1)),
]


@pytest.mark.parametrize("decimal_zero", [False, True])
@pytest.mark.parametrize("seed,k,k2", LARGE_PAIRS,
                         ids=["fibonacci", "seed_1_4", "121_divides_d", "100_digit_seed"])
def test_strong_divisibility_at_large_pairs(seed, k, k2, decimal_zero):
    with exact_decimal() as Decimal:
        zero = Decimal(0) if decimal_zero else 0
        values = [window_gcd(seed, n, zero) for n in (k, k2, math.gcd(k, k2))]
        assert values[2] == euclid(values[0], values[1])
