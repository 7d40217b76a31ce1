import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibonacci import gcdsum, pisano
from gibonacci.applications import lucas_from_gcd, max_modulus_for_period
from gibonacci.gcdsum import (
    BRUTE_FORCE_INDEX_CAP,
    CaseRow,
    Footnote,
    Method,
    classify,
    gcd_sum,
    gcd_sum_bruteforce,
    gcd_sum_lcm,
)
from gibonacci.pisano import pisano_period
from gibonacci.sequences import (
    FIBONACCI,
    LUCAS,
    Seed,
    exact_decimal,
    fib,
    lucas,
)

from conftest import (
    SCAN_SEEDS,
    gcd_sum_at_index_one,
    gcd_sum_two_chains,
    lcm_over_all_divisors,
    lcm_scan_direct,
    naive_gib_terms,
    record_doubling_loop,
)

SEED_14 = Seed(1, 4)


class TestClosedFormula:
    @pytest.mark.parametrize(
        "seed,k,expected",
        [
            (FIBONACCI, 20, 55),
            (SEED_14, 5, 11),
            (FIBONACCI, 60, 832040),
            (Seed(3, 7), 1, 1),
            (FIBONACCI, 3, 2),
        ],
    )
    def test_known_values(self, seed, k, expected):
        result = gcd_sum(seed, k)
        assert result.value == expected
        assert result.method is Method.CLOSED_GCD

    def test_coprime_seed_k1_is_always_1(self, grid25):
        for seed in grid25:
            assert gcd_sum(seed, 1).value == 1, seed

    def test_rejects_k0_and_degenerate_seed(self):
        with pytest.raises(ValueError):
            gcd_sum(FIBONACCI, 0)
        with pytest.raises(ValueError):
            gcd_sum(Seed(0, 0), 5)

    def test_matches_index_one_over_small_seeds(self):
        # every nondegenerate seed with |g| <= 6, coprime or not
        for g0 in range(-6, 7):
            for g1 in range(-6, 7):
                seed = Seed(g0, g1)
                if seed == Seed(0, 0):
                    continue
                for k in range(1, 400):
                    assert gcd_sum(seed, k).value == gcd_sum_at_index_one(seed, k), (seed, k)

    def test_even_k_matches_two_chains_on_random_seeds(self):
        rng = random.Random(20260419)
        for _ in range(300):
            seed = Seed(rng.randint(-50, 50), rng.randint(-50, 50))
            if seed == Seed(0, 0):
                continue
            k = 2 * rng.randint(1, 400)
            assert gcd_sum(seed, k).value == gcd_sum_two_chains(seed, k), (seed, k)

    @pytest.mark.parametrize("k", [10**5, 10**5 + 2])
    @pytest.mark.parametrize("seed", [FIBONACCI, SEED_14])
    def test_even_k_matches_two_chains_at_large_k(self, seed, k):
        assert gcd_sum(seed, k).value == gcd_sum_two_chains(seed, k)

    @pytest.mark.parametrize("k", [2, 20, 10**4, 10**4 + 2])
    def test_even_k_runs_one_doubling_chain(self, monkeypatch, k):
        calls = record_doubling_loop(monkeypatch)
        gcd_sum(SEED_14, k)
        assert calls == [(k // 2, None)]

    def test_lucas_from_gcd_runs_one_doubling_chain(self, monkeypatch):
        want = lucas(5001)
        calls = record_doubling_loop(monkeypatch)
        assert lucas_from_gcd(SEED_14, 5001) == want
        assert calls == [(5001, None)]

    @pytest.mark.parametrize("k", [1, 21, 10**4 + 1])
    def test_odd_k_runs_one_modular_chain(self, monkeypatch, k):
        calls = record_doubling_loop(monkeypatch)
        gcd_sum(SEED_14, k)
        assert calls == [(k + 1, 22)]

    def test_difference_gcd_is_the_same_at_every_index(self, grid25):
        # gcd(D_n, D_{n+1}) with D_n = G_{n+k} - G_n does not depend on n
        for seed in grid25:
            for k in range(1, 41):
                g = naive_gib_terms(seed, -k - 2, 2 * k + 3)
                values = {math.gcd(g[n + k] - g[n], g[n + k + 1] - g[n + 1])
                          for n in range(-k - 2, k + 3)}
                assert values == {gcd_sum(seed, k).value}, (seed, k)


# negative entries, (2, 1), whose first balanced difference is 0 at even
# k/2, a non-coprime seed, and entries of 31 and 34 digits
DECIMAL_SEEDS = (FIBONACCI, LUCAS, SEED_14, Seed(-7, 3), Seed(-5, -8), Seed(3, 6),
                 Seed(10**30 + 1, 3**70))


class TestDecimalRoute:
    def test_balanced_differences_follow_the_lemma(self):
        # G_j - G_{-j} and G_{j+1} - G_{1-j} are (2 G_1 - G_0) F_j and
        # (2 G_0 + G_1) F_j at even j, and G_0 L_j and G_1 L_j at odd j
        for seed in DECIMAL_SEEDS[:-1]:
            g = naive_gib_terms(seed, -41, 42)
            for j in range(1, 41):
                pair = (g[j] - g[-j], g[j + 1] - g[1 - j])
                if j % 2 == 0:
                    want = ((2 * seed.g1 - seed.g0) * fib(j), (2 * seed.g0 + seed.g1) * fib(j))
                else:
                    want = (seed.g0 * lucas(j), seed.g1 * lucas(j))
                assert pair == want, (seed, j)

    @pytest.mark.parametrize("seed", DECIMAL_SEEDS)
    def test_a_decimal_zero_gives_the_int_value(self, seed):
        for k in (1, 2, 4, 6, 20, 22, 999, 1000, 1002, 10**4, 10**4 + 2):
            want = gcd_sum(seed, k).value
            with exact_decimal() as Decimal:
                got = gcd_sum(seed, k, zero=Decimal(0)).value
            assert type(got) is (int if k % 2 else Decimal), (seed, k)
            assert got == want and str(got) == str(want), (seed, k)

    @pytest.mark.parametrize("k", [4, 6, 48, 50, 10**4, 10**4 + 2])
    @pytest.mark.parametrize("seed", [FIBONACCI, LUCAS, SEED_14, Seed(-7, 3)])
    def test_classify_reads_its_prediction_from_the_one_chain(self, monkeypatch, seed, k):
        want = seed.delta * fib(k // 2) if k % 4 == 0 else lucas(k // 2)
        calls = record_doubling_loop(monkeypatch)
        for on_decimal in (False, True):
            with exact_decimal() as Decimal:
                c = classify(seed, k, zero=Decimal(0) if on_decimal else 0)
            assert calls == [(k // 2, None)]
            calls.clear()
            assert c.predicted == want == c.actual
            assert type(c.predicted) is type(c.actual) is (Decimal if on_decimal else int)

    def test_every_library_value_is_an_int_for_int_callers(self):
        for k in (5, 6, 8, 10**4 + 1, 10**4 + 2):
            assert type(gcd_sum(SEED_14, k).value) is int
            c = classify(SEED_14, k)
            assert type(c.actual) is int and type(c.predicted) in (int, type(None))
            assert type(gcd_sum_bruteforce(SEED_14, k).value) is int
            assert type(gcd_sum_lcm(SEED_14, k).value) is int
        assert type(lucas_from_gcd(SEED_14, 10**4 + 1)) is int
        assert type(max_modulus_for_period(60, exhaustive=True).m_f) is int


# coprime, each with a Cassini constant d other than +-1
NON_UNIT_D_SEEDS = (SEED_14, LUCAS, Seed(-3, 7), Seed(3, 1), Seed(1, 10), Seed(9, 4))


class TestOddK:
    # odd k reads the closed formula mod 2|d|; the n = 1 form is the oracle

    def test_value_can_be_2d_itself(self):
        # a modulus of |d| in place of 2|d| would return 11 here
        assert gcd_sum(SEED_14, 15).value == 22 == 2 * abs(SEED_14.cassini)

    def test_matches_index_one_on_non_coprime_seeds(self):
        for seed in (Seed(2, 8), Seed(3, 9), Seed(-6, 4), Seed(5, 0), Seed(0, -12), Seed(22, 44)):
            for k in range(1, 400, 2):
                assert gcd_sum(seed, k).value == gcd_sum_at_index_one(seed, k), (seed, k)

    @given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30),
           st.integers(1, 10**6), st.integers(0, 2500))
    @settings(max_examples=150, deadline=None)
    def test_matches_index_one_on_large_seeds(self, g0, g1, scale, j):
        if (g0, g1) == (0, 0):
            g1 = 1
        seed = Seed(scale * g0, scale * g1)  # non-coprime whenever scale > 1
        k = 2 * j + 1
        assert gcd_sum(seed, k).value == gcd_sum_at_index_one(seed, k)

    def test_classify_actual_with_a_non_unit_d(self):
        for seed in NON_UNIT_D_SEEDS:
            assert abs(seed.cassini) != 1
            for k in range(1, 200, 2):
                c = classify(seed, k)
                assert c.actual == gcd_sum_at_index_one(seed, k), (seed, k)


LARGE_K_SEEDS = (FIBONACCI, LUCAS, SEED_14, Seed(-3, 7), Seed(6, -4))


class TestLargeIndex:
    @pytest.mark.parametrize("seed", LARGE_K_SEEDS)
    def test_every_residue_mod_12_matches_index_one(self, seed):
        for k in range(20_000, 20_012):
            assert gcd_sum(seed, k).value == gcd_sum_at_index_one(seed, k), k

    @pytest.mark.parametrize("seed", [s for s in LARGE_K_SEEDS if math.gcd(s.g0, s.g1) == 1])
    def test_classify_predictions_hold(self, seed):
        for k in range(20_000, 20_012):
            c = classify(seed, k)
            if c.predicted is not None:
                assert c.predicted == c.actual, k


class TestBruteForce:
    def test_seed_1_4_windows(self):
        # the windows starting at n = 1 and 2 are 55 and 88
        assert gcd_sum_bruteforce(SEED_14, 5).value == math.gcd(55, 88) == 11

    def test_fibonacci_k20_two_windows(self):
        # direct sums: F_1..F_20 = 17710 and F_2..F_21 = 28655, gcd 55
        f = naive_gib_terms(FIBONACCI, 0, 21)
        assert sum(f[i] for i in range(1, 21)) == 17710
        assert sum(f[i] for i in range(2, 22)) == 28655
        assert gcd_sum_bruteforce(FIBONACCI, 20).value == 55

    def test_consecutive_fibs_coprime(self):
        assert gcd_sum_bruteforce(FIBONACCI, 1).value == 1

    def test_equals_the_gcd_of_directly_summed_windows(self, grid25):
        # ten windows each, summed term by term from the naive recurrence
        for seed in [*grid25, Seed(2, 4), Seed(3, 9), Seed(6, -4), Seed(0, 5)]:
            g = naive_gib_terms(seed, 0, 70)
            for k in range(1, 61):
                direct = 0
                for n in range(1, 11):
                    direct = math.gcd(direct, sum(g[i] for i in range(n, n + k)))
                assert gcd_sum_bruteforce(seed, k).value == direct, (seed, k)

    def test_refuses_past_the_index_cap_before_any_sum(self, monkeypatch):
        def no_sums(*args):
            raise AssertionError("a window sum was started")

        monkeypatch.setattr(gcdsum, "window_sum", no_sums)
        k = BRUTE_FORCE_INDEX_CAP + 1
        with pytest.raises(ValueError, match=(
                f"brute-force route refuses k = {k}: "
                f"k is over BRUTE_FORCE_INDEX_CAP = {BRUTE_FORCE_INDEX_CAP}")):
            gcd_sum_bruteforce(SEED_14, k)
        with pytest.raises(ValueError, match="refuses k = 100000001: "):
            gcd_sum_bruteforce(SEED_14, 100000001)

    def test_index_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(gcdsum, "BRUTE_FORCE_INDEX_CAP", 20)
        assert gcd_sum_bruteforce(FIBONACCI, 20).value == 55
        with pytest.raises(ValueError, match="BRUTE_FORCE_INDEX_CAP = 20"):
            gcd_sum_bruteforce(FIBONACCI, 21)


class TestLcmCharacterization:
    def test_fibonacci_k12(self):
        result = gcd_sum_lcm(FIBONACCI, 12)
        assert result.value == 8 == fib(6)
        assert pisano_period(FIBONACCI, 8) == 12

    def test_seed_1_4_k5(self):
        assert gcd_sum_lcm(SEED_14, 5).value == 11

    def test_bounded_scan_k1(self, grid25):
        for seed in grid25:
            result = gcd_sum_lcm(seed, 1, bound=100)
            assert result.value == 1 and not result.partial, seed

    def test_bounded_scan_partial_flag(self):
        result = gcd_sum_lcm(FIBONACCI, 20, bound=10)
        assert result.partial and result.value < 55
        full = gcd_sum_lcm(FIBONACCI, 20, bound=55)
        assert full.value == 55 and not full.partial

    def test_bounded_scan_allows_noncoprime_seed(self):
        # value scales by the common factor; the scan must see that
        scaled = gcd_sum_lcm(Seed(2, 8), 5, bound=50)
        base = gcd_sum(Seed(1, 4), 5).value
        assert scaled.value == 2 * base

    def test_bounded_scan_over_all_small_seeds(self):
        # non-coprime seeds too: a modulus dividing both entries always counts
        for g0 in range(-4, 5):
            for g1 in range(-4, 5):
                seed = Seed(g0, g1)
                if seed == Seed(0, 0):
                    continue
                for k in range(1, 17):
                    v = gcd_sum(seed, k).value
                    if v > 1000:
                        continue
                    result = gcd_sum_lcm(seed, k, bound=v)
                    assert (result.value, result.partial) == (v, False), (seed, k)

    def test_bounded_scan_matches_the_per_modulus_scan(self):
        bounds = (1, 2, 6, 12, 30, 97, 180, 300)
        for i, seed in enumerate(SCAN_SEEDS):
            for k in range(1 + i % 3, 25, 3):  # each k in 1..24 on a third of the seeds
                bound = bounds[(i + k) % len(bounds)]
                assert gcd_sum_lcm(seed, k, bound=bound).value == lcm_scan_direct(
                    seed, k, bound), (seed, k, bound)

    def test_unbounded_route_needs_coprime_seed(self):
        with pytest.raises(ValueError):
            gcd_sum_lcm(Seed(2, 4), 6)

    def test_agrees_with_closed_formula(self):
        for seed in (FIBONACCI, LUCAS, SEED_14):
            for k in range(1, 25):
                assert gcd_sum_lcm(seed, k).value == gcd_sum(seed, k).value

    def test_matches_the_all_divisors_route(self):
        for seed in (FIBONACCI, LUCAS, SEED_14):
            for k in range(1, 121):
                assert gcd_sum_lcm(seed, k).value == lcm_over_all_divisors(seed, k), (seed, k)

    def test_never_walks_a_period(self, monkeypatch):
        # one modular chain M^k u = u mod the value: the search kernel never runs
        def no_walk(*args, **kwargs):
            raise AssertionError("walked a period")

        monkeypatch.setattr(pisano, "_shift_steps", no_walk)
        for seed, k in ((FIBONACCI, 240), (SEED_14, 5), (LUCAS, 1), (SEED_14, 10**5)):
            assert gcd_sum_lcm(seed, k).value == gcd_sum(seed, k).value, (seed, k)

    def test_answers_past_the_period_table_cap(self):
        # the period mod L_131075 is exactly k = 262150 > PERIOD_TABLE_CAP = 2^18
        k = 262150
        assert k > pisano.PERIOD_TABLE_CAP
        assert gcd_sum_lcm(FIBONACCI, k).value == gcd_sum(FIBONACCI, k).value == lucas(k // 2)

    def test_unbounded_route_refuses_k_past_its_cap_before_any_chain(self, monkeypatch):
        def no_chain(j, m):
            raise AssertionError(f"a refused k started a chain at {j}")

        record_doubling_loop(monkeypatch, guard=no_chain)
        k = gcdsum.LCM_ROUTE_INDEX_CAP + 2  # even: the CLI's row steps one past, to odd k
        with pytest.raises(ValueError, match=f"^lcm route refuses k = {k}: "
                                             "k is over LCM_ROUTE_INDEX_CAP = 2700000$"):
            gcd_sum_lcm(FIBONACCI, k)
        with pytest.raises(ValueError, match="over LCM_ROUTE_INDEX_CAP"):
            gcd_sum_lcm(Seed(2, 4), k)  # before the coprimality check too

    def test_a_bounded_scan_refuses_k_past_the_cap_before_any_table_or_chain(self, monkeypatch):
        # the partial flag reads the closed value, a full-size chain at k/2 for even k
        def no_chain(j, m):
            raise AssertionError(f"a refused k started a chain at {j}")

        def no_table(*args):
            raise AssertionError("a refused k built a period table")

        record_doubling_loop(monkeypatch, guard=no_chain)
        monkeypatch.setattr(gcdsum, "period_table", no_table)
        for k in (gcdsum.LCM_ROUTE_INDEX_CAP + 1, gcdsum.LCM_ROUTE_INDEX_CAP + 2):
            with pytest.raises(ValueError, match=f"^lcm route refuses k = {k}: "
                                                 "k is over LCM_ROUTE_INDEX_CAP = 2700000$"):
                gcd_sum_lcm(SEED_14, k, bound=30)

    def test_k1000_equals_the_closed_value(self):
        # 209 digits: the route must not factor the value
        assert gcd_sum_lcm(FIBONACCI, 1000).value == gcd_sum(FIBONACCI, 1000).value == fib(500)


class TestScaling:
    def test_scaling_contract(self):
        assert gcd_sum(Seed(3, 9), 6).value == 3 * gcd_sum(Seed(1, 3), 6).value

    def test_scaling_over_factors(self, grid25):
        for seed in grid25[:10]:
            for d in range(1, 6):
                scaled = Seed(d * seed.g0, d * seed.g1)
                for k in (1, 4, 6, 9, 12):
                    assert gcd_sum(scaled, k).value == d * gcd_sum(seed, k).value


class TestClassify:
    def test_fibonacci_k20(self):
        c = classify(FIBONACCI, 20)
        assert c.case_row is CaseRow.ROW_048
        assert c.predicted == 55 == c.actual
        assert c.footnote is Footnote.DELTA_IS_1

    def test_lucas_k12(self):
        c = classify(LUCAS, 12)
        assert c.predicted == 40 == 5 * fib(6)
        assert c.footnote is Footnote.DELTA_IS_5

    def test_fibonacci_k6(self):
        c = classify(FIBONACCI, 6)
        assert c.case_row is CaseRow.ROW_2610
        assert c.predicted == 4 == c.actual

    def test_seed_1_4_k5_table_inapplicable(self):
        c = classify(SEED_14, 5)
        assert c.case_row is CaseRow.ROW_15711
        assert c.predicted is None
        assert c.footnote is Footnote.D_NOT_UNIT
        assert c.actual == 11

    def test_fibonacci_k9(self):
        c = classify(FIBONACCI, 9)
        assert c.case_row is CaseRow.ROW_39
        assert c.predicted == 2 == c.actual

    def test_rejects_noncoprime_seed(self):
        with pytest.raises(ValueError):
            classify(Seed(2, 4), 5)

    def test_predictions_match_over_grid(self, grid25):
        for seed in grid25:
            for k in range(1, 61):
                c = classify(seed, k)
                if c.predicted is not None:
                    assert c.predicted == c.actual, (seed, k)

    def test_row_048_dichotomy(self, grid25):
        # actual / F_{k/2} is exactly the delta parameter, 1 or 5
        for seed in grid25:
            delta = seed.delta
            for k in (4, 8, 12, 24, 48):
                c = classify(seed, k)
                half = fib(k // 2)
                assert c.actual % half == 0
                assert c.actual // half == delta, (seed, k)


class TestDivisibilityBiconditional:
    def test_small_grid(self, grid25):
        # period mod m divides k <=> m divides the k-window GCD
        for seed in grid25[:10]:
            values = {k: gcd_sum(seed, k).value for k in range(1, 25)}
            for m in range(2, 31):
                p = pisano_period(seed, m)
                for k, v in values.items():
                    assert (k % p == 0) == (v % m == 0), (seed, m, k)
