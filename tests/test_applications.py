import pytest
import sympy

from gibonacci import applications, gcdsum, pisano, sequences
from gibonacci.applications import (
    SquaresGcdRecord,
    lucas_from_gcd,
    max_modulus_for_period,
    pisano_of_fib_lucas_moduli,
    prime_restriction_check,
    squares_gcd,
)
from gibonacci.pisano import pisano_period
from gibonacci.sequences import FIBONACCI, LUCAS, Seed, coprime_seed_grid, fib, lucas

from conftest import max_modulus_full_scan, record_doubling_loop, squares_gcd_direct

#: Coprime seeds with entries up to 6, and four seeds with a common factor.
SQUARES_SEEDS = coprime_seed_grid(6) + [Seed(2, 4), Seed(3, 9), Seed(6, -4), Seed(0, 5)]


class TestPrimeRestriction:
    def test_seed_1_4_k5(self):
        report = prime_restriction_check(Seed(1, 4), 5)
        assert report.value == 11 and not report.offending_primes  # 11 = 11 (mod 20), allowed

    def test_fibonacci_k9(self):
        report = prime_restriction_check(FIBONACCI, 9)
        assert report.value == 2 and not report.offending_primes

    def test_seed_1_24_odd_scan(self):
        # 29 = 9 (mod 20) is allowed to appear
        for k in range(1, 16, 2):
            report = prime_restriction_check(Seed(1, 24), k)
            assert not report.offending_primes, (k, report.offending_primes)
            assert report.unfactored_cofactor == 1

    def test_rejects_even_k(self):
        with pytest.raises(ValueError):
            prime_restriction_check(FIBONACCI, 4)

    def test_a_63_bit_prime_value_is_left_whole_at_the_bound_cap(self):
        # the value is d = r^2 - r - 1 at r = 2147483724, a prime over the
        # square of the cap, so the division runs to the cap and leaves it whole
        seed, bound = Seed(1, 2147483724), pisano.TRIAL_DIVISION_BOUND
        d = seed.cassini
        assert d == 4611686342697424451 and sympy.isprime(d) and d > bound**2
        report = prime_restriction_check(seed, 2305843171348712225, bound)
        assert (report.value, report.unfactored_cofactor) == (d, d)
        assert not report.offending_primes

    def test_a_bound_over_the_cap_is_refused_before_the_value(self, monkeypatch):
        # the k = 45 value of seed (1, 81) is 2 * 11 * 19 * 31: with the cap
        # patched to 11, the division at the cap leaves 19 * 31
        monkeypatch.setattr(pisano, "TRIAL_DIVISION_BOUND", 11)
        seed = Seed(1, 81)
        report = prime_restriction_check(seed, 45, 11)
        assert (report.value, report.unfactored_cofactor) == (12958, 589)
        assert not report.offending_primes

        def no_call(*args):
            raise AssertionError(f"called with {args}")

        chains = record_doubling_loop(monkeypatch)
        monkeypatch.setattr(applications, "gcd_sum", no_call)
        monkeypatch.setattr(applications, "trial_division", no_call)
        for bound, name in ((12, "12"), (2**200, "a 201-bit value")):
            with pytest.raises(ValueError, match=(
                    f"^trial division up to {name} refused: over TRIAL_DIVISION_BOUND = 11$")):
                prime_restriction_check(seed, 45, bound)
        assert chains == []


class TestFibLucasModuliPeriods:
    def test_spot_values(self):
        assert pisano_period(FIBONACCI, fib(10)) == 20   # 2i, i = 10 even
        assert pisano_period(FIBONACCI, fib(5)) == 20    # 4i, i = 5 odd
        assert pisano_period(FIBONACCI, lucas(3)) == 6   # 2i, i = 3 odd

    def test_all_match_up_to_20(self):
        entries = pisano_of_fib_lucas_moduli(20)
        assert all(e.predicted == e.computed for e in entries)
        kinds = {(e.kind, e.i) for e in entries}
        assert ("F", 4) in kinds and ("L", 2) in kinds

    def test_rejects_small_range(self):
        with pytest.raises(ValueError):
            pisano_of_fib_lucas_moduli(4)

    def test_moduli_that_trial_division_leaves_unfactored(self):
        # F_73 = 9375829 * 86020717 is the first with two primes above 2^21
        assert all(e.predicted == e.computed for e in pisano_of_fib_lucas_moduli(100))

    def test_the_range_ends_at_the_modulus_bit_cap(self):
        # L_737 has 512 bits, L_738 one more
        assert lucas(737).bit_length() == pisano.MODULUS_BIT_CAP < lucas(738).bit_length()
        with pytest.raises(ValueError, match=r"^period mod a 513-bit modulus refused: "):
            pisano_of_fib_lucas_moduli(738)


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
        monkeypatch.setattr(gcdsum, "_balanced_gcd", lambda seed, j, f, f_next: 2 * 832040)
        assert max_modulus_for_period(60).m_f == 832040
        with pytest.raises(AssertionError, match="divides 1664080, expected 832040"):
            max_modulus_for_period(60, exhaustive=True)

    def test_period_check_fails_on_a_wrong_period(self, monkeypatch):
        monkeypatch.setattr(applications, "period_from_multiple", lambda seed, m, n, primes: 30)
        with pytest.raises(AssertionError, match="period of modulus 832040 is 30, expected 60"):
            max_modulus_for_period(60)

    def test_checks_the_exact_period_by_order_finding(self, monkeypatch):
        # F_{k/2} at k = 2^18 (91k bits): two modular chains, no walk
        def no_walk(*args, **kwargs):
            raise AssertionError("walked a period")

        monkeypatch.setattr(pisano, "_shift_steps", no_walk)
        result = max_modulus_for_period(2**18, exhaustive=True)
        assert (result.verified_period, result.predicted_form) == (2**18, "fib_half")
        assert result.m_f == fib(2**17)

    def test_refused_above_the_lcm_route_cap_before_any_term(self, monkeypatch):
        # F_32 = 2178309 has period 64 = the cap, checked by order finding
        monkeypatch.setattr(gcdsum, "LCM_ROUTE_INDEX_CAP", 64)

        def no_walk(*args):
            raise AssertionError("searched a period")

        def no_term(*args):
            raise AssertionError(f"computed a term at {args}")

        assert max_modulus_for_period(64).m_f == fib(32)
        chains = record_doubling_loop(monkeypatch)
        monkeypatch.setattr(pisano, "_shift_steps", no_walk)
        monkeypatch.setattr(applications, "classify", no_term)
        monkeypatch.setattr(sequences, "gib_pair", no_term)
        with pytest.raises(ValueError, match=(
                r"^max-modulus refuses k = 66: k is over LCM_ROUTE_INDEX_CAP = 64$")):
            max_modulus_for_period(66)
        assert chains == []

    def test_takes_k_past_the_period_table_cap(self, monkeypatch):
        # PERIOD_TABLE_CAP bounds the probe and the shift search, not k here
        monkeypatch.setattr(pisano, "PERIOD_TABLE_CAP", 64)
        result = max_modulus_for_period(66, exhaustive=True)
        assert (result.m_f, result.verified_period) == (lucas(33), 66)

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
        assert squares_gcd(FIBONACCI, k).value == expected

    def test_record_has_four_fields(self):
        assert list(SquaresGcdRecord._fields) == ["seed", "k", "value", "predicted"]

    def test_prediction_is_the_value_at_even_k(self):
        for k in range(0, 201, 2):
            rec = squares_gcd(FIBONACCI, k)
            assert rec.predicted == rec.value == fib(k), k
            assert squares_gcd(FIBONACCI, k + 1).predicted is None, k + 1

    def test_no_prediction_for_other_seeds(self):
        for seed in SQUARES_SEEDS:  # Lucas among them
            if seed != FIBONACCI:
                for k in range(0, 61):
                    assert squares_gcd(seed, k).predicted is None, (seed, k)

    def test_equals_the_gcd_of_sixty_direct_windows(self):
        for seed in SQUARES_SEEDS:
            for k in range(0, 61):  # k = 0: every window is the empty sum
                got = squares_gcd(seed, k).value
                assert got == squares_gcd_direct(seed, k, 60), (seed, k)

    def test_two_windows_are_not_enough(self):
        # windows 15, 40, 103: the first two share 5, the third does not
        assert squares_gcd_direct(Seed(1, 0), 5, 2) == 5
        assert squares_gcd(Seed(1, 0), 5).value == 1 == squares_gcd_direct(Seed(1, 0), 5, 60)

    def test_large_k_answers_from_one_term_pair(self):
        rec = squares_gcd(FIBONACCI, 300_000)
        assert rec.value == rec.predicted == fib(300_000)

    def test_one_chain_per_call(self, monkeypatch):
        chains = record_doubling_loop(monkeypatch)
        for seed, k in ((FIBONACCI, 0), (FIBONACCI, 10), (FIBONACCI, 9), (LUCAS, 10), (Seed(3, -5), 0)):
            chains.clear()
            squares_gcd(seed, k)
            assert chains == [(k, None)], (seed, k)

    def test_index_cap_is_inclusive_and_refuses_before_any_chain(self, monkeypatch):
        monkeypatch.setattr(gcdsum, "BRUTE_FORCE_INDEX_CAP", 20)
        chains = record_doubling_loop(monkeypatch)
        assert squares_gcd(FIBONACCI, 20).value == 6765
        for k in (21, 100000001):
            with pytest.raises(ValueError, match=(
                    f"squares refuses k = {k}: k is over BRUTE_FORCE_INDEX_CAP = 20")):
                squares_gcd(FIBONACCI, k)
        assert chains == [(20, None)]

    def test_rejects_negative_k_and_thin_windows(self):
        with pytest.raises(ValueError):
            squares_gcd(FIBONACCI, -1)
        with pytest.raises(TypeError):  # no window count can be asked for
            squares_gcd(FIBONACCI, 5, num_windows=1)
