import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibonacci import pisano
from gibonacci.pisano import (
    equivalent_up_to_shift,
    parity_scan,
    pisano_period,
)
from gibonacci.sequences import FIBONACCI, LUCAS, Seed, coprime_seed_grid

from conftest import (
    minimal_window_length_scan,
    naive_gib_terms,
    naive_shift_equivalence,
    residue_period_walk,
)

SEED_14 = Seed(1, 4)


class TestPisanoPeriod:
    @pytest.mark.parametrize(
        "seed,m,expected",
        [
            (FIBONACCI, 10, 60),
            (SEED_14, 11, 5),
            (LUCAS, 5, 4),
            (FIBONACCI, 1, 1),
            (LUCAS, 1, 1),
        ],
    )
    def test_known_values(self, seed, m, expected):
        assert pisano_period(seed, m) == expected

    def test_every_coprime_seed_has_period_3_mod_2(self):
        for seed in coprime_seed_grid(6):
            assert pisano_period(seed, 2) == 3, seed

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            pisano_period(FIBONACCI, 0)

    def test_rejects_degenerate_residues(self):
        with pytest.raises(ValueError):
            pisano_period(Seed(4, 6), 2)

    @pytest.mark.parametrize("m", [1, 5])
    def test_rejects_degenerate_seed(self, m):
        with pytest.raises(ValueError, match="degenerate"):
            pisano_period(Seed(0, 0), m)

    def test_periodicity_and_minimality(self, grid25):
        # G_{n+p} = G_n (mod m) over 3 periods, and no smaller r works
        for seed in grid25:
            for m in (2, 3, 5, 7, 10, 12, 50, 200):
                p = pisano_period(seed, m)
                terms = naive_gib_terms(seed, 0, 3 * p + 1)
                for n in range(2 * p + 1):
                    assert (terms[n + p] - terms[n]) % m == 0, (seed, m, n)
                for r in range(1, p):
                    if (terms[r] - terms[0]) % m == 0 and (terms[r + 1] - terms[1]) % m == 0:
                        pytest.fail(f"period {p} not minimal for {seed} mod {m}: {r}")

    def test_period_depends_only_on_residues(self):
        assert pisano_period(Seed(12, 4), 11) == pisano_period(Seed(1, 4), 11)


class TestPeriodKernel:
    # baby-step giant-step against the one-step walk

    def test_matches_walk_on_every_residue_pair(self):
        for m in range(2, 41):
            for a in range(m):
                for b in range(m):
                    if (a, b) != (0, 0):
                        assert pisano_period(Seed(a, b), m) == residue_period_walk(a, b, m), (a, b, m)

    @given(st.integers(2, 10**5), st.integers(0, 10**5), st.integers(0, 10**5))
    @settings(max_examples=100, deadline=None)
    def test_matches_walk_on_random_pairs(self, m, a, b):
        a, b = a % m, b % m
        if (a, b) == (0, 0):
            b = 1
        assert pisano_period(Seed(a, b), m) == residue_period_walk(a, b, m)

    @pytest.mark.parametrize(
        "seed,m,s,period",
        [
            (FIBONACCI, 2, 4, 3),        # below s: phase 1 returns it
            (Seed(0, 3), 9, 8, 8),       # exactly s: still phase 1
            (LUCAS, 855, 72, 72),
            (FIBONACCI, 4, 5, 6),        # s + 1: giant step 2 lands on baby step s - 1
            (FIBONACCI, 368, 47, 48),
            (FIBONACCI, 9, 8, 24),       # multiples of s: the landing is baby step 0
            (FIBONACCI, 100, 25, 300),
        ],
    )
    def test_periods_at_the_edges_of_the_giant_step(self, seed, m, s, period):
        assert math.isqrt(6 * m) + 1 == s
        assert pisano_period(seed, m) == residue_period_walk(seed.g0 % m, seed.g1 % m, m) == period

    def test_large_prime_modulus(self):
        assert pisano_period(FIBONACCI, 10**9 + 7) == 2 * (10**9 + 8)

    def test_table_cap(self, monkeypatch):
        # s = isqrt(6m) + 1 is 2235 at m = 832040 and 2450 at m = 10^6
        monkeypatch.setattr(pisano, "PERIOD_TABLE_CAP", 64)
        assert pisano_period(FIBONACCI, 832040) == 60  # phase 1 finds it under the cap
        with pytest.raises(ValueError, match=r"period mod 1000000 exceeds PERIOD_TABLE_CAP = 64 "):
            pisano_period(FIBONACCI, 10**6)


class TestMinimalWindowLength:
    # the period is also the least window length whose sums m always divides
    @pytest.mark.parametrize(
        "seed,m,expected",
        [(FIBONACCI, 2, 3), (LUCAS, 5, 4), (FIBONACCI, 10, 60)],
    )
    def test_equals_period(self, seed, m, expected):
        assert minimal_window_length_scan(seed, m) == pisano_period(seed, m) == expected

    def test_matches_period_over_grid(self, grid25):
        # non-coprime seeds too, skipping the moduli that divide both entries
        for seed in [*grid25, Seed(2, 4), Seed(3, 9), Seed(6, -4)]:
            for m in range(2, 51):
                if seed.g0 % m == 0 and seed.g1 % m == 0:
                    continue
                expected = minimal_window_length_scan(seed, m)
                assert pisano_period(seed, m) == expected, (seed, m)

    def test_period_windows_always_divisible(self, grid25):
        # m divides every period-length window sum, starts 1 .. 2 * period
        from gibonacci.sequences import window_sum

        for seed in grid25[:8]:
            for m in range(2, 51):
                p = pisano_period(seed, m)
                for n in range(1, 2 * p + 1):
                    assert window_sum(seed, n, p) % m == 0, (seed, m, n)


class TestParityScan:
    def test_fibonacci_and_lucas_have_no_odd_periods(self):
        assert parity_scan(FIBONACCI, 500).empty
        assert parity_scan(LUCAS, 500).empty

    def test_seed_1_4_has_odd_period_at_11(self):
        report = parity_scan(SEED_14, 500)
        assert (11, 5) in report.odd_period_moduli

    def test_seed_1_24_has_odd_period_at_29(self):
        # |d| = 551 = 19 * 29; the odd-period modulus divides it
        report = parity_scan(Seed(1, 24), 500)
        assert any(m == 29 for m, _ in report.odd_period_moduli)

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            parity_scan(FIBONACCI, 2)

    def test_rejects_degenerate_seed(self):
        # every modulus divides both entries: no scan has anything to report
        with pytest.raises(ValueError, match="degenerate"):
            parity_scan(Seed(0, 0), 10)


    def test_skips_moduli_dividing_both_entries(self):
        # 3 divides 3 and 6, so (3, 6) has no period mod 3; every other m has one
        report = parity_scan(Seed(3, 6), 12)
        assert report.skipped_degenerate == [3]
        assert report.odd_period_moduli == [
            (m, p) for m in range(4, 13)
            if (p := residue_period_walk(3 % m, 6 % m, m)) % 2 == 1]

class TestShiftEquivalence:
    def test_reflexive(self):
        for m in (2, 5, 7, 10):
            assert equivalent_up_to_shift(FIBONACCI, FIBONACCI, m) == (True, 0)

    def test_delta_5_seed_matches_lucas_mod_5(self):
        for seed in coprime_seed_grid(10):
            from gibonacci.sequences import seed_invariants

            if seed_invariants(seed).delta == 5:
                ok, _ = equivalent_up_to_shift(seed, LUCAS, 5)
                assert ok, seed

    def test_delta_1_seed_not_lucas_mod_5(self):
        assert equivalent_up_to_shift(FIBONACCI, LUCAS, 5) == (False, None)

    def test_witness_shift_aligns_sequences(self):
        ok, r = equivalent_up_to_shift(Seed(1, 3), LUCAS, 5)
        assert ok
        a = naive_gib_terms(Seed(1, 3), 0, r + 20)
        b = naive_gib_terms(LUCAS, 0, 20)
        for n in range(20):
            assert (a[r + n] - b[n]) % 5 == 0

    def test_rejects_a_modulus_below_2(self):
        for m in (1, 0, -5):
            with pytest.raises(ValueError, match="modulus m must be >= 2"):
                equivalent_up_to_shift(FIBONACCI, LUCAS, m)

    def test_rejects_a_seed_degenerate_mod_m(self):
        for a, b in ((Seed(5, 10), FIBONACCI), (FIBONACCI, Seed(5, 10))):
            with pytest.raises(ValueError, match=r"seed .* is degenerate mod 5"):
                equivalent_up_to_shift(a, b, 5)

    def test_matches_termwise_oracle_over_all_residue_seeds(self):
        # every ordered pair of nonzero residue-pair seeds for m <= 8,
        # including the pairs with equal periods and disjoint orbits
        equal_periods_not_equivalent = 0
        for m in range(2, 9):
            seeds = [Seed(a, b) for a in range(m) for b in range(m) if (a, b) != (0, 0)]
            for sa in seeds:
                for sb in seeds:
                    want = naive_shift_equivalence(sa, sb, m)
                    assert equivalent_up_to_shift(sa, sb, m) == want, (sa, sb, m)
                    if not want[0] and pisano_period(sa, m) == pisano_period(sb, m):
                        equal_periods_not_equivalent += 1
        assert equal_periods_not_equivalent == 3408


def lcm_of_periods(seed, m1, m2):
    return math.lcm(pisano_period(seed, m1), pisano_period(seed, m2))


class TestLcmCompose:
    # CRT: the period mod m1*m2 (coprime) is the lcm of the two periods
    def test_fibonacci_10(self):
        assert lcm_of_periods(FIBONACCI, 2, 5) == 60 == pisano_period(FIBONACCI, 10)

    def test_lucas_15(self):
        assert lcm_of_periods(LUCAS, 5, 3) == pisano_period(LUCAS, 15)

    def test_unit_modulus(self):
        assert lcm_of_periods(FIBONACCI, 1, 7) == pisano_period(FIBONACCI, 7)

    def test_composition_over_coprime_pairs(self, grid25):
        pairs = [(2, 3), (2, 5), (3, 5), (4, 9), (5, 8), (7, 9), (8, 25)]
        for seed in grid25:
            for m1, m2 in pairs:
                assert lcm_of_periods(seed, m1, m2) == pisano_period(seed, m1 * m2), (seed, m1, m2)


class TestKnownPeriodFacts:
    def test_same_period_for_all_seeds_at_restricted_primes(self):
        # primes = 3, 7, 13, 17 (mod 20): the period mod p^e ignores the seed
        for p in (3, 7, 13, 17, 23, 43):
            for e in (1, 2):
                m = p**e
                want = pisano_period(FIBONACCI, m)
                for seed in coprime_seed_grid(10):
                    assert pisano_period(seed, m) == want, (seed, m)

    def test_parity_congruence_of_cassini_constant(self, grid25):
        # (-1)^period * d = d (mod m)
        from gibonacci.sequences import seed_invariants

        for seed in grid25:
            d = seed_invariants(seed).d
            for m in range(3, 201):
                p = pisano_period(seed, m)
                assert ((-1) ** p * d - d) % m == 0, (seed, m)

    def test_fibonacci_period_range(self):
        periods = {pisano_period(FIBONACCI, m) for m in range(2, 1001)}
        for p in periods:
            assert p == 3 or (p % 2 == 0 and p >= 6), p
