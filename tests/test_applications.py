import types

import pytest

from gibonacci import applications, pisano
from gibonacci.applications import (
    lucas_from_gcd,
    max_modulus_for_period,
    pisano_of_fib_lucas_moduli,
    prime_restriction_check,
    squares_gcd,
)
from gibonacci.pisano import pisano_period
from gibonacci.sequences import FIBONACCI, LUCAS, Seed, coprime_seed_grid, fib, lucas

from conftest import max_modulus_full_scan, squares_gcd_direct

#: Coprime seeds with entries up to 6, and four seeds with a common factor.
SQUARES_SEEDS = coprime_seed_grid(6) + [Seed(2, 4), Seed(3, 9), Seed(6, -4), Seed(0, 5)]


class TestPrimeRestriction:
    def test_seed_1_4_k5(self):
        report = prime_restriction_check(Seed(1, 4), 5)
        assert report.value == 11 and report.clean  # 11 = 11 (mod 20), allowed

    def test_fibonacci_k9(self):
        report = prime_restriction_check(FIBONACCI, 9)
        assert report.value == 2 and report.clean

    def test_seed_1_24_odd_scan(self):
        # 29 = 9 (mod 20) is allowed to appear
        for k in range(1, 16, 2):
            report = prime_restriction_check(Seed(1, 24), k)
            assert report.clean, (k, report.offending_primes)
            assert report.unfactored_cofactor == 1

    def test_rejects_even_k(self):
        with pytest.raises(ValueError):
            prime_restriction_check(FIBONACCI, 4)


class TestFibLucasModuliPeriods:
    def test_spot_values(self):
        assert pisano_period(FIBONACCI, fib(10)) == 20   # 2i, i = 10 even
        assert pisano_period(FIBONACCI, fib(5)) == 20    # 4i, i = 5 odd
        assert pisano_period(FIBONACCI, lucas(3)) == 6   # 2i, i = 3 odd

    def test_all_match_up_to_20(self):
        report = pisano_of_fib_lucas_moduli(20)
        assert report.all_match
        kinds = {(e.kind, e.i) for e in report.entries}
        assert ("F", 4) in kinds and ("L", 2) in kinds

    def test_rejects_small_range(self):
        with pytest.raises(ValueError):
            pisano_of_fib_lucas_moduli(4)


class TestMaxModulus:
    @pytest.mark.parametrize(
        "k,m_f,form",
        [(60, 832040, "fib_half"), (6, 4, "lucas_half"), (12, 8, "fib_half")],
    )
    def test_known_values(self, k, m_f, form):
        result = max_modulus_for_period(k)
        assert (result.m_f, result.predicted_form, result.verified_period) == (m_f, form, k)

    def test_exhaustive_scan(self):
        for k in range(6, 122, 2):
            result = max_modulus_for_period(k, exhaustive=True)
            assert result == max_modulus_full_scan(k), k
            assert result.exhaustive_check

    def test_exhaustive_check_fails_on_a_larger_window_gcd(self, monkeypatch):
        monkeypatch.setattr(
            applications, "gcd_sum", lambda seed, k: types.SimpleNamespace(value=2 * 832040)
        )
        assert max_modulus_for_period(60).m_f == 832040
        with pytest.raises(AssertionError, match="divides 1664080, expected 832040"):
            max_modulus_for_period(60, exhaustive=True)

    def test_refused_above_the_table_cap_without_a_walk(self, monkeypatch):
        # F_32 = 2178309 has period 64, found by phase 1 within the cap
        monkeypatch.setattr(pisano, "PERIOD_TABLE_CAP", 64)

        def no_walk(a, b, m):
            raise AssertionError(f"walked mod {m}")

        assert max_modulus_for_period(64).m_f == fib(32)
        monkeypatch.setattr(pisano, "_residue_period", no_walk)
        with pytest.raises(ValueError, match=r"^period k = 66 exceeds PERIOD_TABLE_CAP = 64 steps"):
            max_modulus_for_period(66)

    def test_rejects_odd_and_small_k(self):
        with pytest.raises(ValueError):
            max_modulus_for_period(7)
        with pytest.raises(ValueError):
            max_modulus_for_period(4)


class TestLucasFromGcd:
    @pytest.mark.parametrize(
        "seed,j,expected",
        [(FIBONACCI, 3, 4), (Seed(1, 4), 5, 11), (Seed(3, 7), 1, 1)],
    )
    def test_known_values(self, seed, j, expected):
        assert lucas_from_gcd(seed, j) == expected == lucas(j)

    def test_matches_lucas_over_grid(self, grid25):
        for seed in grid25:
            for j in (*range(1, 42, 2), 10_001, 10_003):
                assert lucas_from_gcd(seed, j) == lucas(j), (seed, j)

    def test_rejects_even_j_and_noncoprime_seed(self):
        with pytest.raises(ValueError):
            lucas_from_gcd(FIBONACCI, 4)
        with pytest.raises(ValueError):
            lucas_from_gcd(Seed(2, 4), 3)


class TestSquaresGcd:
    @pytest.mark.parametrize(
        "k,expected", [(10, 55), (6, 8), (3, 2), (0, 0), (12, 144)]
    )
    def test_fibonacci_values(self, k, expected):
        assert squares_gcd(FIBONACCI, k).empirical_value == expected

    def test_conjecture_attached_for_even_k(self):
        rec = squares_gcd(FIBONACCI, 10)
        assert rec.conjectured == fib(10) and rec.matches_conjecture

    def test_no_conjecture_for_odd_k_or_other_seeds(self):
        assert squares_gcd(FIBONACCI, 9).conjectured is None
        assert squares_gcd(LUCAS, 10).conjectured is None

    def test_equals_the_gcd_of_sixty_direct_windows(self):
        for seed in SQUARES_SEEDS:
            for k in range(1, 61):
                got = squares_gcd(seed, k).empirical_value
                assert got == squares_gcd_direct(seed, k, 60), (seed, k)

    def test_two_windows_are_not_enough(self):
        # windows 15, 40, 103: the first two share 5, the third does not
        assert squares_gcd_direct(Seed(1, 0), 5, 2) == 5
        rec = squares_gcd(Seed(1, 0), 5)
        assert rec.empirical_value == 1 == squares_gcd_direct(Seed(1, 0), 5, 60)
        assert rec.windows_used == 3

    def test_large_k_answers_from_one_term_pair(self):
        rec = squares_gcd(FIBONACCI, 300_000)
        assert rec.empirical_value == rec.conjectured == fib(300_000)

    def test_rejects_negative_k_and_thin_windows(self):
        with pytest.raises(ValueError):
            squares_gcd(FIBONACCI, -1)
        with pytest.raises(TypeError):  # no window count can be asked for
            squares_gcd(FIBONACCI, 5, num_windows=1)
