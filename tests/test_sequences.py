import decimal
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibonacci.sequences import (
    FIBONACCI,
    LUCAS,
    Seed,
    coprime_seed_grid,
    exact_decimal,
    fib,
    gib_from_fib,
    gib_pair,
    gib_term,
    lucas,
    window_sum,
)

from conftest import (
    gib_pair_three_products,
    naive_fib,
    naive_gib_terms,
    record_doubling_loop,
)

SEED_14 = Seed(1, 4)


class TestFib:
    @pytest.mark.parametrize("n,expected", [(10, 55), (0, 0), (-1, 1), (30, 832040)])
    def test_known_values(self, n, expected):
        assert fib(n) == expected

    def test_agrees_with_naive_iteration(self):
        for n in range(-2000, 2001):
            assert fib(n) == naive_fib(n), n

    def test_negative_index_reflection(self):
        for n in range(201):
            assert fib(-n) == (-1) ** (n + 1) * fib(n)


class TestLucas:
    @pytest.mark.parametrize("n,expected", [(0, 2), (9, 76), (5, 11)])
    def test_known_values(self, n, expected):
        # 76 and 11 frozen from iterating the recurrence from (2, 1)
        assert lucas(n) == expected

    def test_recurrence(self):
        for n in range(-50, 50):
            assert lucas(n) + lucas(n + 1) == lucas(n + 2)

    def test_negative_index_reflection(self):
        for n in range(201):
            assert lucas(-n) == (-1) ** n * lucas(n)


class TestGibTerm:
    def test_seed_1_4_prefix(self):
        assert [gib_term(SEED_14, n) for n in range(8)] == [1, 4, 5, 9, 14, 23, 37, 60]

    def test_fibonacci_seed_reduces_to_fib(self):
        assert gib_term(FIBONACCI, 10) == 55

    def test_backward_recurrence(self):
        assert gib_term(LUCAS, -1) == -1  # G_1 - G_0 = 1 - 2

    @pytest.mark.parametrize("on_decimal", [False, True])
    def test_recurrence_over_grid(self, grid25, on_decimal):
        with exact_decimal() as Decimal:
            zero = Decimal(0) if on_decimal else 0
            for seed in grid25:
                want = naive_gib_terms(seed, -300, 301)
                for n in range(-300, 301):
                    got = gib_term(seed, n, zero=zero)
                    assert type(got) is type(zero) and got == want[n], (seed, n)
                    assert gib_pair(seed, n, zero=zero) == (want[n], want[n + 1]), (seed, n)

    @pytest.mark.parametrize("on_decimal", [False, True])
    def test_random_large_indices_of_both_signs(self, random_large_terms_1_4, on_decimal):
        indices, terms = random_large_terms_1_4
        assert min(indices) < -10**5 and max(indices) > 10**5
        with exact_decimal() as Decimal:
            zero = Decimal(0) if on_decimal else 0
            for n in indices:
                assert gib_term(SEED_14, n, zero=zero) == terms[n], n

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 10**5, 10**5 + 1,
                                   -1, -2, -3, -4, -5, -10**5, -10**5 - 1])
    def test_one_chain_stopped_one_doubling_short(self, monkeypatch, n):
        chains = record_doubling_loop(monkeypatch)
        gib_term(SEED_14, n)
        fib(n)
        lucas(n)
        # G_{2i} and G_{2i+1} read the chain at i; G_{-j} reads it at (j + 1) // 2
        assert chains == 3 * [(n >> 1 if n >= 0 else (1 - n) >> 1, None)]

    def test_window_sum_reads_two_shortened_chains(self, monkeypatch):
        chains = record_doubling_loop(monkeypatch)
        total = window_sum(SEED_14, 7, 10)  # G_18 - G_8
        assert chains == [(9, None), (4, None)]
        assert total == sum(naive_gib_terms(SEED_14, 7, 16).values())


class TestGibPairModular:
    @pytest.mark.parametrize("m", [0, -7])
    def test_rejects_a_modulus_below_one(self, m):
        with pytest.raises(ValueError, match="modulus m must be >= 1"):
            gib_pair(FIBONACCI, 10, m)

    @pytest.mark.parametrize("m", [1, 2, 7, 1000, 2**60 - 93])
    @pytest.mark.parametrize("seed", [FIBONACCI, LUCAS, Seed(-3, 7)])
    def test_is_the_plain_pair_reduced(self, seed, m):
        for n in range(-300, 301):
            assert gib_pair(seed, n, m) == tuple(x % m for x in gib_pair(seed, n)), n

    @given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
           st.integers(-2 * 10**5, 2 * 10**5), st.integers(1, 2**256))
    @settings(max_examples=60, deadline=None)
    def test_is_the_plain_pair_reduced_at_large_n_and_m(self, g0, g1, n, m):
        seed = Seed(g0, g1)
        assert gib_pair(seed, n, m) == tuple(x % m for x in gib_pair(seed, n))


# every even modulus here tests the loop's halving mod 2m; 22 is 2|d| for (1,4)
KERNEL_MODULI = [None, 1, 2, 3, 4, 10, 22, 10**6 + 3, 2**61 + 1]


class TestGibPairAgainstOracles:
    """The (F, L) doubling loop against the three-product loop it replaced
    and the naive recurrence, plain and at every modulus of KERNEL_MODULI."""

    @staticmethod
    def check(seed, terms, n):
        for m in KERNEL_MODULI:
            want = (terms[n], terms[n + 1])
            if m is not None:
                want = tuple(x % m for x in want)
            assert gib_pair(seed, n, m) == want == gib_pair_three_products(seed, n, m), (n, m)

    @pytest.mark.parametrize("seed", [FIBONACCI, LUCAS, SEED_14, Seed(-3, 7)])
    def test_every_small_index(self, seed):
        terms = naive_gib_terms(seed, -300, 301)
        for n in range(-300, 301):
            self.check(seed, terms, n)

    def test_random_large_indices(self, random_large_terms_1_4):
        indices, terms = random_large_terms_1_4
        for n in indices:
            self.check(SEED_14, terms, n)

    @pytest.mark.parametrize("seed", [FIBONACCI, SEED_14, Seed(-3, 7), Seed(5, -8)])
    def test_a_decimal_zero_runs_the_same_loop_on_decimal(self, seed):
        terms = naive_gib_terms(seed, -300, 301)
        with decimal.localcontext() as ctx:
            ctx.prec = 200  # G_300 of these seeds has 64 digits: every step is exact
            ctx.traps[decimal.Inexact] = True
            for n in range(-300, 301):
                pair = gib_pair(seed, n, zero=decimal.Decimal(0))
                assert all(isinstance(g, decimal.Decimal) for g in pair)
                assert pair == (terms[n], terms[n + 1]), n
                if 1 <= n <= 299:
                    assert window_sum(seed, n, 3, zero=decimal.Decimal(0)) == (
                        terms[n] + terms[n + 1] + terms[n + 2])


def test_gib_from_fib_steps_any_pair_as_the_recurrence_walks_it():
    # the one application of M^r: a seed or a residue pair (some = (0, 0) mod
    # m, m = 1 included), or a Fibonacci pair (F_s, F_{s+1}) stepped to
    # (F_{r+s}, F_{r+s+1}); n of both signs; F as ints, reduced or not, and,
    # with no modulus, as Decimals in exact_decimal
    rng = random.Random(31)
    fibs = naive_gib_terms(FIBONACCI, -1, 1202)
    for _ in range(400):
        m = rng.choice([None, 1, 2, rng.randrange(3, 10**4), rng.randrange(2, 2**90)])
        r = rng.randrange(600)
        n = r if rng.random() < 0.6 else -r
        f, f_next = fibs[r], fibs[r + 1]
        shape = rng.randrange(4)
        if shape == 0:  # (F_s, F_{s+1})
            s = rng.randrange(600)
            g0, g1 = fibs[s], fibs[s + 1]
        elif shape == 1 and m is not None:  # = (0, 0) mod m
            g0, g1 = m * rng.randrange(-3, 4), m * rng.randrange(-3, 4)
        else:
            top = m or 10**30
            g0, g1 = rng.randrange(-top, top), rng.randrange(-top, top)
        walk = naive_gib_terms(Seed(g0, g1), min(n, 0), max(n, 0) + 1)
        want = (walk[n], walk[n + 1])
        if m is not None:
            want = tuple(x % m for x in want)
            if rng.random() < 0.5:  # as a modular fib_pair chain gives them
                f, f_next = f % m, f_next % m
        if shape == 0 and n >= 0:
            assert walk[n] == fibs[s + r] and walk[n + 1] == fibs[s + r + 1]
        assert gib_from_fib(g0, g1, n, f, f_next, m) == want, (g0, g1, n, m)
        if m is None:  # a modulus needs ints, as in fib_pair
            with exact_decimal() as Decimal:
                got = gib_from_fib(g0, g1, n, Decimal(f), Decimal(f_next))
            assert all(isinstance(g, decimal.Decimal) for g in got) and got == want


class TestWindowSum:
    def test_seed_1_4_examples(self):
        assert window_sum(SEED_14, 1, 5) == 55
        assert window_sum(SEED_14, 2, 5) == 88

    def test_single_term(self):
        assert window_sum(FIBONACCI, 1, 1) == 1

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            window_sum(FIBONACCI, 1, 0)

    def test_rejects_a_start_below_1(self):
        for n in (0, -3):
            with pytest.raises(ValueError, match="window start n must be >= 1"):
                window_sum(FIBONACCI, n, 5)

    def test_matches_direct_summation(self, grid25):
        for seed in grid25:
            terms = naive_gib_terms(seed, 0, 102)
            for n in range(1, 51):
                total = 0
                for k in range(1, 51):
                    total += terms[n + k - 1]
                    assert window_sum(seed, n, k) == total, (seed, n, k)


class TestSeedProperties:
    @pytest.mark.parametrize(
        "seed,delta,d",
        [(Seed(0, 1), 1, 1), (Seed(2, 1), 5, -5), (Seed(1, 4), 1, 11)],
    )
    def test_known_values(self, seed, delta, d):
        assert (seed.delta, seed.cassini) == (delta, d)

    def test_delta_is_1_or_5_for_coprime_seeds(self):
        for seed in coprime_seed_grid(10):
            assert seed.delta in (1, 5), seed

    def test_consecutive_gcd_invariance(self, grid25):
        # gcd(G_n, G_{n+1}) stays equal to gcd(G_0, G_1) along the sequence
        for seed in grid25:
            terms = naive_gib_terms(seed, -51, 52)
            for n in range(-50, 51):
                assert math.gcd(terms[n], terms[n + 1]) == 1, (seed, n)

    def test_cassini_constant_alternates_in_sign(self, grid25):
        for seed in grid25:
            d0 = seed.cassini
            terms = naive_gib_terms(seed, 0, 102)
            for n in range(101):
                dn = Seed(terms[n], terms[n + 1]).cassini
                assert dn == (-1) ** n * d0, (seed, n)

    def test_delta_shift_invariance(self, grid25):
        for seed in grid25:
            delta = seed.delta
            terms = naive_gib_terms(seed, 0, 104)
            for n in range(101):
                got = math.gcd(terms[n] + terms[n + 2], terms[n + 1] + terms[n + 3])
                assert got == delta, (seed, n)


def test_grid_includes_canonical_seeds():
    grid = coprime_seed_grid(10)
    assert grid[0] == FIBONACCI and grid[1] == LUCAS
    assert all(math.gcd(s.g0, s.g1) == 1 for s in grid)
    assert Seed(1, 4) in grid
