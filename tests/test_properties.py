"""Property-based checks of the core arithmetic invariants."""

import math

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gibonacci.gcdsum import gcd_sum, gcd_sum_bruteforce, gcd_sum_lcm
from gibonacci.pisano import pisano_period
from gibonacci.sequences import Seed, fib, gib_pair, gib_term, lucas, window_sum

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
