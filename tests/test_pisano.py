import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gibonacci import pisano
from gibonacci.pisano import (
    equivalent_up_to_shift,
    parity_scan,
    period_from_multiple,
    period_table,
    pisano_period,
)
from gibonacci.sequences import FIBONACCI, LUCAS, Seed, coprime_seed_grid, fib, gib_pair

from conftest import (
    SCAN_SEEDS,
    certify_period,
    minimal_window_length_scan,
    naive_gib_terms,
    naive_shift_equivalence,
    parity_scan_direct,
    period_direct,
    record_doubling_loop,
    residue_period_bsgs,
    residue_period_walk,
    shift_walk,
    table_odd_periods,
)

SEED_14 = Seed(1, 4)


def probe_only(monkeypatch) -> list[tuple[int, int | None]]:
    """Forbid order finding, and return the list that records every
    doubling chain: the probe's one chain to M^s, if it runs."""
    def no_order(*args):
        raise AssertionError(f"ran order finding at {args}")

    monkeypatch.setattr(pisano, "_order", no_order)
    return record_doubling_loop(monkeypatch)


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
    # order finding against the one-step walk

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
        # the edges of the baby-step giant-step oracle's two phases
        a, b = seed.g0 % m, seed.g1 % m
        assert math.isqrt(6 * m) + 1 == s
        assert residue_period_bsgs(a, b, m) == residue_period_walk(a, b, m) == period
        assert pisano_period(seed, m) == period

    def test_large_prime_modulus(self):
        assert pisano_period(FIBONACCI, 10**9 + 7) == 2 * (10**9 + 8)

    @pytest.mark.parametrize("bound,cases", [
        (64, {"below s", "at s", "up to the bound", "past the bound"}),  # s = 8
        (10, {"below s", "at s", "up to the bound", "past the bound"}),  # s = 4, not s^2
        (4, {"up to the bound", "past the bound"}),  # s = 2: no period is below 3
    ])
    def test_the_probe_finds_every_period_up_to_its_bound(self, bound, cases):
        # the search from a residue pair back to itself, as pisano_period
        # probes an unfactored m; past a bound that is not a square, a giant
        # step may still land, and must read None
        s = math.isqrt(bound - 1) + 1
        seen = set()
        for m in range(2, 41):
            for u in ((a, b) for a in range(m) for b in range(m) if (a, b) != (0, 0)):
                period = residue_period_walk(*u, m)
                got = pisano._shift_steps(u, u, m, bound)
                assert got == (period if period <= bound else None), (u, m, bound)
                seen.add("below s" if period < s else "at s" if period == s
                         else "up to the bound" if period <= bound else "past the bound")
        assert seen == cases



class TestFactoredPeriod:
    # order finding at the prime powers of a factored m, against the
    # baby-step giant-step oracle, which factors nothing

    @pytest.mark.parametrize("seed", [
        FIBONACCI, LUCAS, SEED_14, Seed(1, 24), Seed(-3, 7),   # p | d for 5; 11; 19, 29; 5
        Seed(3, 6), Seed(5, 10), Seed(0, 7), Seed(3, 9),     # not coprime
    ])
    def test_matches_the_oracle_at_every_modulus_to_3000(self, seed):
        for m in range(1, 3001):
            if m == 1 or seed.g0 % m != 0 or seed.g1 % m != 0:
                assert pisano_period(seed, m) == period_direct(seed, m), (seed, m)

    def test_matches_the_oracle_at_every_modulus_to_300_on_every_scan_seed(self):
        for seed in SCAN_SEEDS:
            for m in range(1, 301):
                if m == 1 or seed.g0 % m != 0 or seed.g1 % m != 0:
                    assert pisano_period(seed, m) == period_direct(seed, m), (seed, m)

    def test_matches_the_oracle_at_random_moduli_up_to_1e10(self):
        # log-uniform m from 10^4 up to 1.1e10
        rng = random.Random(21)
        for _ in range(8):
            m = int(math.exp(rng.uniform(math.log(10**4), math.log(1.1e10))))
            seed = rng.choice(SCAN_SEEDS[::5])
            if seed.g0 % m != 0 or seed.g1 % m != 0:
                assert pisano_period(seed, m) == period_direct(seed, m), (seed, m)

    @pytest.mark.parametrize("seed,p,e_max", [
        (SEED_14, 11, 5), (LUCAS, 5, 8), (Seed(1, 24), 19, 4), (Seed(1, 24), 29, 3),
        (Seed(3, 6), 3, 9), (Seed(3, 9), 3, 9),
    ])
    def test_matches_the_oracle_at_prime_powers_with_p_dividing_d(self, seed, p, e_max):
        for e in range(1, e_max + 1):
            q = p**e
            if seed.g0 % q != 0 or seed.g1 % q != 0:
                assert pisano_period(seed, q) == period_direct(seed, q), (seed, q)
                assert pisano_period(seed, 2 * q) == period_direct(seed, 2 * q), (seed, 2 * q)

    @pytest.mark.parametrize("m,period", [
        (10**12 + 39, 333333333346),                     # a prime near 2^40
        (2**40 + 15, 2**40 + 14),
        (10**40, 15 * 10**39),                           # smooth, probed to the cap first
    ])
    def test_answers_at_moduli_of_40_bits_and_more(self, m, period):
        assert pisano_period(FIBONACCI, m) == period
        certify_period(FIBONACCI, m, period)

    @pytest.mark.parametrize("seed,m,multiple,primes", [
        (FIBONACCI, 60, 120, {2, 3, 5}),                  # lcm(2 * 3, 8, 20)
        (Seed(3, 6), 12, 24, {2, 3}),                     # (0, 0) mod 3: no part is skipped
        (SEED_14, 2**20 * 3**5, 2**19 * 3**4, {2, 3}),    # lcm(2^19 * 3, 3^4 * 8)
    ])
    def test_finds_one_order_on_m_from_the_lcm_of_wall_multiples(self, monkeypatch, seed, m,
                                                                  multiple, primes):
        real, called = pisano._order, []

        def spy(a, b, q, n, given):
            called.append((q, n, set(given)))
            return real(a, b, q, n, given)

        monkeypatch.setattr(pisano, "_order", spy)
        assert pisano_period(seed, m) == period_direct(seed, m)
        assert called == [(m, multiple, primes)]

    def test_a_high_prime_power_costs_two_chains_a_prime(self, monkeypatch):
        # (0, 2^199) mod 2^200 has period 3; Wall's multiple is 3 * 2^199, so
        # stripping one 2 per chain would take 200 chains
        real, chains = pisano.fib_pair, []
        monkeypatch.setattr(pisano, "fib_pair", lambda j, m: chains.append(j) or real(j, m))
        assert period_from_multiple(Seed(0, 2**199), 2**200, 3 * 2**199, [2, 3]) == 3
        assert len(chains) == 4  # the multiple, then at most two for each of 2 and 3
        assert period_from_multiple(Seed(0, 2**199), 2**200, 3 * 2**199 * 5**40, [2, 3, 5]) == 3

    def test_wall_multiple_comes_with_the_primes_of_p_times_it(self):
        # every prime below 10^4, and the largest primes pisano_period can
        # meet: a cofactor that the division leaves is prime only below (B + 1)^2
        top = (pisano.TRIAL_DIVISION_BOUND + 1) ** 2
        large = [sympy.prevprime(top)]
        while len(large) < 4:
            large.append(sympy.prevprime(large[-1]))
        for p in [*sympy.primerange(2, 10**4), *large]:
            w, primes = pisano._wall_multiple(p)
            rule = {2: 3, 5: 20}.get(p, p - 1 if p % 5 in (1, 4) else 2 * (p + 1))
            assert (w, primes) == (rule, set(sympy.primefactors(p * w))), p

    def test_a_huge_modulus_is_named_by_its_bit_length(self):
        m = 2**200 * sympy.nextprime(2**50) ** 2
        with pytest.raises(ValueError, match=rf"^period mod a {m.bit_length()}-bit modulus refused: "):
            pisano_period(FIBONACCI, m)

    @pytest.mark.parametrize("i,period", [(73, 292), (83, 332), (100, 200)])
    def test_a_short_period_is_probed_when_m_does_not_factor(self, monkeypatch, i, period):
        # F_73 = 9375829 * 86020717 and the prime F_83 do not factor under B;
        # F_100 does, but is probed first, being above (B + 1)^2
        m = fib(i)
        chains = probe_only(monkeypatch)
        assert pisano_period(FIBONACCI, m) == period
        assert chains == [(math.isqrt(pisano.PERIOD_TABLE_CAP - 1) + 1, m)]  # the probe's M^s

    def test_the_modulus_bit_cap(self, monkeypatch):
        cap = pisano.MODULUS_BIT_CAP
        assert pisano_period(FIBONACCI, 2 ** (cap - 1)) == 3 * 2 ** (cap - 2)

        def no_work(*args):
            raise AssertionError(f"started work at {args}")

        for name in ("trial_division", "fib_pair", "_shift_steps"):
            monkeypatch.setattr(pisano, name, no_work)
        with pytest.raises(ValueError, match=(
                rf"^period mod a {cap + 1}-bit modulus refused: over MODULUS_BIT_CAP = {cap} bits$")):
            pisano_period(FIBONACCI, 2**cap)


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


def prime_powers(n: int) -> list[int]:
    return sorted(p**e for p in sympy.primerange(2, n + 1)
                  for e in range(1, n.bit_length()) if p**e <= n)


def no_kernel(*args):
    raise AssertionError("the period kernel was called")


class TestPeriodFromMultiple:
    def test_matches_the_kernel_from_multiples_of_the_fibonacci_period(self):
        # every residue pair mod m <= 20, from the Fibonacci period times 1, 2, 15 and 2^6 3^4
        for m in range(2, 21):
            pi_f = pisano_period(FIBONACCI, m)
            for a in range(m):
                for b in range(m):
                    if (a, b) == (0, 0):
                        continue
                    seed = Seed(a, b)
                    for n in (pi_f, 2 * pi_f, 15 * pi_f, 2**6 * 3**4 * pi_f):
                        got = period_from_multiple(seed, m, n, sympy.primefactors(n))
                        assert got == residue_period_walk(a, b, m), (a, b, m, n)

    def test_strips_only_the_given_primes(self):
        # F mod 10 has period 60 = 2^2 * 3 * 5
        assert period_from_multiple(FIBONACCI, 10, 120) == 120
        assert period_from_multiple(FIBONACCI, 10, 120, [2]) == 60
        assert period_from_multiple(FIBONACCI, 10, 120, [3, 5]) == 120
        assert period_from_multiple(FIBONACCI, 10, 120, [2, 3, 5]) == 60
        assert period_from_multiple(FIBONACCI, 1, 120, [2, 3, 5]) == 1

    def test_raises_when_the_period_does_not_divide_the_multiple(self):
        for n in (30, 59, 61, 90):
            with pytest.raises(AssertionError, match=(
                    rf"^period of residue pair \(0, 1\) mod 10 does not divide the multiple {n}$")):
                period_from_multiple(FIBONACCI, 10, n, sympy.primefactors(n))

    def test_errors(self):
        with pytest.raises(ValueError, match="modulus m must be >= 1"):
            period_from_multiple(FIBONACCI, 0, 60)
        with pytest.raises(ValueError, match="multiple n must be >= 1"):
            period_from_multiple(FIBONACCI, 10, 0)
        with pytest.raises(ValueError, match=r"congruent to \(0, 0\) mod 2"):
            period_from_multiple(Seed(4, 6), 2, 3)
        with pytest.raises(ValueError, match="degenerate"):
            period_from_multiple(Seed(0, 0), 5, 20)


class TestPeriodTable:
    def test_matches_the_kernel_at_every_modulus(self):
        for seed in SCAN_SEEDS:
            expected = [0, 1] + [
                1 if seed.g0 % m == 0 and seed.g1 % m == 0 else period_direct(seed, m)
                for m in range(2, 501)]
            assert period_table(seed, 500) == expected, seed

    @pytest.mark.parametrize("seed", [
        SEED_14, LUCAS, Seed(1, 24),           # p | d for p = 11; 5; 19 and 29
        Seed(3, 6), Seed(5, 10), Seed(0, 7),   # not coprime
    ])
    def test_matches_the_kernel_at_every_prime_power_to_3000(self, seed):
        table = period_table(seed, 3000)
        for q in prime_powers(3000):
            want = 1 if seed.g0 % q == 0 and seed.g1 % q == 0 else period_direct(seed, q)
            assert table[q] == want, (seed, q)

    def test_a_wrong_multiple_raises(self, monkeypatch):
        # p - 1 is Wall's multiple only at p = +-1 (mod 5); the period mod 3 is 8
        monkeypatch.setattr(pisano, "_wall_multiple",
                            lambda p: (w := 3 if p == 2 else p - 1, {p, *sympy.primefactors(w)}))
        with pytest.raises(AssertionError,
                           match=r"^period of residue pair \(1, 1\) mod 3 does not divide the multiple 2$"):
            period_table(SEED_14, 10)

    @pytest.mark.parametrize("seed,m,period", [
        # one prime-power factor reduces the seed to (0, 0), the other does not
        (Seed(3, 6), 6, 3),    # lcm(3 mod 2, 1 mod 3)
        (Seed(3, 6), 12, 6),   # lcm(6 mod 4, 1 mod 3)
        (Seed(2, 4), 4, 3),    # a prime power over a degenerate 2
        (Seed(2, 4), 6, 8),    # lcm(1 mod 2, 8 mod 3)
        (Seed(2, 4), 12, 24),  # lcm(3 mod 4, 8 mod 3)
    ])
    def test_a_degenerate_factor_counts_as_period_1(self, seed, m, period):
        assert period_table(seed, 12)[m] == period
        assert residue_period_walk(seed.g0 % m, seed.g1 % m, m) == period

    def test_finds_one_order_per_nondegenerate_prime_power(self, monkeypatch):
        monkeypatch.setattr(pisano, "_shift_steps", no_kernel)
        real = pisano._order
        for seed in (SEED_14, Seed(2, 4), Seed(3, 9), Seed(6, -4)):
            called = []

            def spy(a, b, m, n, primes):
                called.append(m)
                return real(a, b, m, n, primes)

            monkeypatch.setattr(pisano, "_order", spy)
            period_table(seed, 500)
            assert called == [q for q in prime_powers(500)
                              if seed.g0 % q != 0 or seed.g1 % q != 0], seed

    def test_refuses_past_the_cap_before_any_kernel_call(self, monkeypatch):
        monkeypatch.setattr(pisano, "_order", no_kernel)
        monkeypatch.setattr(pisano, "pisano_period", no_kernel)
        with pytest.raises(ValueError, match=(
                r"^scan of every modulus up to 1000000000000 refused: "
                rf"over SCAN_MODULUS_CAP = {pisano.SCAN_MODULUS_CAP}$")):
            parity_scan(SEED_14, 10**12)
        monkeypatch.setattr(pisano, "SCAN_MODULUS_CAP", 40)
        with pytest.raises(ValueError, match="up to 41 refused: over SCAN_MODULUS_CAP = 40"):
            period_table(SEED_14, 41)

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(pisano, "SCAN_MODULUS_CAP", 40)
        assert parity_scan(SEED_14, 40) == parity_scan_direct(SEED_14, 40)


class TestParityScan:
    def test_matches_the_per_modulus_scan(self):
        for seed in SCAN_SEEDS:
            assert parity_scan(seed, 500) == parity_scan_direct(seed, 500), seed
        for m_max in (3, 4, 5, 12, 13):
            for seed in SCAN_SEEDS[::7]:
                assert parity_scan(seed, m_max) == parity_scan_direct(seed, m_max), (seed, m_max)

    @pytest.mark.parametrize("seed", [
        Seed(3, 6), Seed(5, 10), Seed(0, 7), Seed(6, -4),  # not coprime
        Seed(2**200 + 1, 3),                               # |d| of 400 bits
        Seed(1, 4 + 22 * 10**300),                         # |d| longer than a block's product
    ])
    def test_matches_the_per_modulus_scan_and_the_table_to_3000(self, seed):
        report = parity_scan(seed, 3000)
        assert report == parity_scan_direct(seed, 3000)
        assert report.odd_period_moduli == table_odd_periods(seed, 3000)

    @pytest.mark.parametrize("seed", [SEED_14, Seed(3, 6), Seed(6, -4), Seed(1, 24), LUCAS,
                                      Seed(1, 4 + 22 * 10**300)])
    def test_finds_periods_only_at_divisors_of_twice_the_cassini_constant(self, monkeypatch,
                                                                          seed):
        monkeypatch.setattr(pisano, "period_table", no_kernel)
        real, called = pisano.pisano_period, []

        def spy(s, m):
            called.append(m)
            return real(s, m)

        monkeypatch.setattr(pisano, "pisano_period", spy)
        report = parity_scan(seed, 3000)
        assert called == [m for m in range(3, 3001)
                          if 2 * seed.cassini % m == 0 and m not in report.skipped_degenerate]
        assert report.skipped_degenerate == [m for m in range(3, 3001)
                                             if seed.g0 % m == 0 and seed.g1 % m == 0]

    def test_odd_table_entries_sit_at_divisors_of_twice_the_cassini_constant(self):
        # the lemma of parity_scan, read off full tables: an odd period r > 1
        # needs m | 2d, and a period of 1 (both entries divisible by m) m | d
        for seed in SCAN_SEEDS:
            d = seed.cassini
            for m, r in enumerate(period_table(seed, 3000)[2:], start=2):
                assert r % 2 == 0 or (d if r == 1 else 2 * d) % m == 0, (seed, m, r)

    def test_fibonacci_and_lucas_have_no_odd_periods(self):
        assert not parity_scan(FIBONACCI, 500).odd_period_moduli
        assert not parity_scan(LUCAS, 500).odd_period_moduli

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
            if seed.delta == 5:
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

    def test_matches_the_walk_on_random_pairs(self):
        # periods reach 6m <= 2400 here, so most searches take several giant
        # steps; half the targets are put on A's orbit, since a random pair rarely is
        rng = random.Random(16)
        found = 0
        for _ in range(1500):
            m = rng.randrange(2, 401)
            a = Seed(rng.randrange(m), rng.randrange(1, m))
            b = (Seed(*gib_pair(a, rng.randrange(6 * m), m)) if rng.random() < 0.5
                 else Seed(rng.randrange(1, m), rng.randrange(m)))
            want = shift_walk(a, b, m)
            assert equivalent_up_to_shift(a, b, m) == want, (a, b, m)
            found += want[0] and want[1] > math.isqrt(6 * m) + 1
        assert found > 300  # most on-orbit shifts are longer than the table

    @pytest.mark.parametrize("seed", [FIBONACCI, Seed(1, 4)])
    @pytest.mark.parametrize("t", [1, 2 * 10**9 + 15, 10**10])  # 1, period - 1, past it
    def test_finds_the_shift_to_a_pair_on_the_orbit_at_a_large_prime(self, seed, t):
        m = 10**9 + 7
        period = pisano_period(seed, m)
        assert equivalent_up_to_shift(seed, Seed(*gib_pair(seed, t, m)), m) == (True, t % period)

    @pytest.mark.parametrize("m", [10**6 + 3, 10**9 + 7])
    def test_fibonacci_and_lucas_lie_on_different_orbits(self, m):
        assert equivalent_up_to_shift(FIBONACCI, LUCAS, m) == (False, None)

    def test_a_short_period_past_the_cap_is_searched_whole_in_phase_1(self):
        # isqrt(6m) + 1 is about 6e10 at m = F_100, far over the cap, but the
        # search is sized by the period, 200
        m = fib(100)
        assert equivalent_up_to_shift(FIBONACCI, LUCAS, m) == (False, None)
        assert equivalent_up_to_shift(FIBONACCI, Seed(*gib_pair(FIBONACCI, 177, m)), m) == (True, 177)

    def test_shares_the_period_kernels_cap(self, monkeypatch):
        # the period mod 10007 is 20016 > 64^2, so the table would need 142 pairs
        monkeypatch.setattr(pisano, "PERIOD_TABLE_CAP", 64)
        with pytest.raises(ValueError, match=r"period mod 10007 exceeds PERIOD_TABLE_CAP = 64 "):
            equivalent_up_to_shift(FIBONACCI, LUCAS, 10007)


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
        for seed in grid25:
            d = seed.cassini
            for m in range(3, 201):
                p = pisano_period(seed, m)
                assert ((-1) ** p * d - d) % m == 0, (seed, m)

    def test_fibonacci_period_range(self):
        periods = {pisano_period(FIBONACCI, m) for m in range(2, 1001)}
        for p in periods:
            assert p == 3 or (p % 2 == 0 and p >= 6), p
