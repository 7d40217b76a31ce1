import inspect
import math

import pytest

from gibonacci.sequences import (
    FIBONACCI,
    LUCAS,
    SMALL_SEED_GRID,
    Identity,
    Seed,
    coprime_seed_grid,
    default_identity_ranges,
    fib,
    gib_pair,
    gib_term,
    lucas,
    seed_invariants,
    verify_identity,
    window_sum,
)

from conftest import naive_fib, naive_gib_terms

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

    def test_recurrence_over_grid(self, grid25):
        for seed in grid25:
            want = naive_gib_terms(seed, -100, 101)
            for n in range(-100, 101):
                assert gib_term(seed, n) == want[n], (seed, n)
                assert gib_pair(seed, n) == (want[n], want[n + 1]), (seed, n)


class TestWindowSum:
    def test_seed_1_4_examples(self):
        assert window_sum(SEED_14, 1, 5) == 55
        assert window_sum(SEED_14, 2, 5) == 88

    def test_single_term(self):
        assert window_sum(FIBONACCI, 1, 1) == 1

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            window_sum(FIBONACCI, 1, 0)

    def test_matches_direct_summation(self, grid25):
        for seed in grid25:
            terms = naive_gib_terms(seed, 0, 102)
            for n in range(1, 51):
                total = 0
                for k in range(1, 51):
                    total += terms[n + k - 1]
                    assert window_sum(seed, n, k) == total, (seed, n, k)


class TestSeedInvariants:
    @pytest.mark.parametrize(
        "seed,delta,d",
        [(Seed(0, 1), 1, 1), (Seed(2, 1), 5, -5), (Seed(1, 4), 1, 11)],
    )
    def test_known_values(self, seed, delta, d):
        inv = seed_invariants(seed)
        assert (inv.delta, inv.d) == (delta, d)

    def test_degenerate_seed_rejected(self):
        with pytest.raises(ValueError):
            seed_invariants(Seed(0, 0))

    def test_delta_is_1_or_5_for_coprime_seeds(self):
        for seed in coprime_seed_grid(10):
            assert seed_invariants(seed).delta in (1, 5), seed

    def test_consecutive_gcd_invariance(self, grid25):
        # gcd(G_n, G_{n+1}) stays equal to gcd(G_0, G_1) along the sequence
        for seed in grid25:
            terms = naive_gib_terms(seed, -51, 52)
            for n in range(-50, 51):
                assert math.gcd(terms[n], terms[n + 1]) == 1, (seed, n)

    def test_cassini_constant_alternates_in_sign(self, grid25):
        for seed in grid25:
            d0 = seed_invariants(seed).d
            terms = naive_gib_terms(seed, 0, 102)
            for n in range(101):
                dn = seed_invariants(Seed(terms[n], terms[n + 1])).d
                assert dn == (-1) ** n * d0, (seed, n)

    def test_delta_shift_invariance(self, grid25):
        for seed in grid25:
            delta = seed_invariants(seed).delta
            terms = naive_gib_terms(seed, 0, 104)
            for n in range(101):
                got = math.gcd(terms[n] + terms[n + 2], terms[n + 1] + terms[n + 3])
                assert got == delta, (seed, n)


class TestVerifyIdentity:
    def test_cassini_fibonacci_clean(self):
        report = verify_identity(Identity.CASSINI, {"n": (0, 100)}, [FIBONACCI])
        assert report.ok and report.checked == 101

    def test_shift_family_two_sided(self):
        report = verify_identity(
            Identity.FIB_SHIFT_FAMILY, {"r": (-10, 10), "j": (-10, 10)}
        )
        assert report.ok and report.checked == 441

    def test_perturbed_fixture_fails_everywhere(self, monkeypatch):
        # a deliberately false identity, F_{n+1} = F_n + F_{n-1} + 1
        monkeypatch.setattr(Identity.LUCAS_FROM_FIB, "sides",
                            lambda t, s, n: (t.F(n + 1), t.F(n) + t.F(n - 1) + 1))
        report = verify_identity(Identity.LUCAS_FROM_FIB, {"n": (0, 99)})
        assert len(report.failures) == report.checked == 100

    def test_seed_dependence_is_read_from_the_sides(self, monkeypatch):
        # G_n = F_n holds for the Fibonacci seed only: every other seed must run
        monkeypatch.setattr(Identity.LUCAS_FROM_FIB, "sides",
                            lambda t, s, n: (t.G(n), t.F(n)))
        report = verify_identity(Identity.LUCAS_FROM_FIB, {"n": (0, 99)}, SMALL_SEED_GRID)
        assert (report.checked, len(report.seeds), len(report.failures)) == (2500, 25, 2392)

    def test_sides_take_the_params_in_order(self):
        # verify_identity binds the ranges by position
        for ident in Identity:
            names = list(inspect.signature(ident.sides).parameters)
            assert names == ["t", "s", *ident.params], ident

    @pytest.mark.parametrize("ranges", [
        {"r": (1, 5), "j": (1, 5)},
        {"r": (-12, -5), "j": (-12, -5)},
    ], ids=["r-j-1-to-5", "r-j-minus-12-to-minus-5"])
    def test_shift_family_off_the_suite_ranges(self, ranges):
        report = verify_identity(Identity.FIB_SHIFT_FAMILY, ranges)
        size = ranges["r"][1] - ranges["r"][0] + 1
        assert report.ok and report.checked == size * size, report.failures[:3]

    def test_every_family_clean_on_shifted_ranges(self):
        seeds = [FIBONACCI, Seed(-3, 7)]
        for ident in Identity:
            floors = ident.params
            for lo in range(-12, 13):
                for hi in (lo, lo + 7):
                    ranges = {p: (lo, hi) if f is None else (max(lo, f), max(hi, f))
                              for p, f in floors.items()}
                    report = verify_identity(ident, ranges, seeds)
                    assert report.ok, (ident, ranges, report.failures[:3])

    def test_all_families_clean_on_suite_ranges(self, grid25):
        for ident in Identity:
            ranges = default_identity_ranges(ident, 0, 40)
            report = verify_identity(ident, ranges, grid25)
            assert report.ok, (ident, report.failures[:3])

    def test_domain_floor_enforced(self):
        with pytest.raises(ValueError):
            verify_identity(Identity.GAP_TWO_SUM, {"n": (0, 10)})

    def test_missing_range_rejected(self):
        with pytest.raises(ValueError):
            verify_identity(Identity.GIB_ADDITION, {"m": (1, 5)})


def test_grid_includes_canonical_seeds():
    grid = coprime_seed_grid(10)
    assert grid[0] == FIBONACCI and grid[1] == LUCAS
    assert all(math.gcd(s.g0, s.g1) == 1 for s in grid)
    assert Seed(1, 4) in grid
