import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibonacci import sequences
from gibonacci.sequences import (
    FIBONACCI,
    IDENTITY_POINT_CAP,
    LUCAS,
    SMALL_SEED_GRID,
    Identity,
    Seed,
    _Progression,
    _Row,
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

from conftest import naive_fib, naive_gib_terms, verify_identity_pointwise

SEED_14 = Seed(1, 4)

# a deliberately false identity, F_{n+1} = F_n + F_{n-1} + 1
PERTURBED = lambda t, s, n: (t.F(n + 1), t.F(n) + t.F(n - 1) + 1)  # noqa: E731
# G_n = F_n holds for the Fibonacci seed only: every other seed must run
SEED_DEPENDENT = lambda t, s, n: (t.G(n), t.F(n))  # noqa: E731
# F_{-n} = (-1)^{n+1} F_n, read through a progression with a negative step
NEGATED = lambda t, s, n: (t.F(-1 * n), (-1) ** (n + 1) * t.F(n))  # noqa: E731
# a false sum whose inner progression reads past every other index: F_0
# .. F_{n+4} are read only through it
LONG_SUM = lambda t, s, n: (_Row(sum(t.F(_Progression(range(0, k + 5)))) for k in n),  # noqa: E731
                            t.F(n))
# the addition law made false at (m, n) = (2, 3) and (4, 6) only: 0 ** x is
# 1 at x = 0 and 0 above, and F_i = 0 only at i = 0
FALSE_AT_TWO_POINTS = lambda t, s, m, n: (  # noqa: E731
    t.G(m + n) + 0 ** (t.F(n - 3) ** 2 + (m - 2) ** 2) + 0 ** (t.F(n - 6) ** 2 + (m - 4) ** 2),
    t.F(m - 1) * t.G(n) + t.F(m) * t.G(n + 1))
# the partial-sum law's own lhs against a false rhs, G_{n+2} - G_1: off by
# G_1 - G_2 = -G_0 at every n, so it holds for the Fibonacci seed only
_PARTIAL_SUM_SIDES = Identity.GIB_PARTIAL_SUM.sides
WRONG_SUM_START = lambda t, s, n: (  # noqa: E731
    _PARTIAL_SUM_SIDES(t, s, n)[0], t.G(n + 2) - t.G(1))


def shifted_ranges(ident: Identity):
    """Ranges [lo, lo] and [lo, lo + 7] for lo in -12..12, each lifted to
    the parameter's domain floor."""
    for lo in range(-12, 13):
        for hi in (lo, lo + 7):
            yield {p: (lo, hi) if f is None else (max(lo, f), max(hi, f))
                   for p, f in ident.params.items()}


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
        monkeypatch.setattr(Identity.LUCAS_FROM_FIB, "sides", PERTURBED)
        report = verify_identity(Identity.LUCAS_FROM_FIB, {"n": (0, 99)})
        assert len(report.failures) == report.checked == 100

    def test_seed_dependence_is_read_from_the_sides(self, monkeypatch):
        monkeypatch.setattr(Identity.LUCAS_FROM_FIB, "sides", SEED_DEPENDENT)
        report = verify_identity(Identity.LUCAS_FROM_FIB, {"n": (0, 99)}, SMALL_SEED_GRID)
        assert (report.checked, len(report.seeds), len(report.failures)) == (2500, 25, 2392)

    def test_false_fixture_fails_at_its_two_points_only(self, monkeypatch):
        # one interior point and one at the end of a row
        monkeypatch.setattr(Identity.GIB_ADDITION, "sides", FALSE_AT_TWO_POINTS)
        seeds = [FIBONACCI, Seed(-3, 7)]
        report = verify_identity(Identity.GIB_ADDITION, {"m": (1, 4), "n": (1, 6)}, seeds)
        assert report.checked == 48
        assert [(s, pt, lhs - rhs) for s, pt, lhs, rhs in report.failures] == [
            (seed, pt, 1) for seed in seeds for pt in ((2, 3), (4, 6))]

    def test_partial_sum_rows_report_every_failing_point(self, monkeypatch):
        monkeypatch.setattr(Identity.GIB_PARTIAL_SUM, "sides", WRONG_SUM_START)
        seed = Seed(-3, 7)
        report = verify_identity(Identity.GIB_PARTIAL_SUM, {"n": (5, 12)}, [FIBONACCI, seed])
        assert report.checked == 16
        assert [(s, pt, lhs - rhs) for s, pt, lhs, rhs in report.failures] == [
            (seed, (n,), 3) for n in range(5, 13)]
        assert [lhs for *_, lhs, _ in report.failures] == [
            sum(naive_gib_terms(seed, 1, n).values()) for n in range(5, 13)]

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
            for ranges in shifted_ranges(ident):
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

    def test_point_cap_refuses_before_any_table(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a term table was built")

        monkeypatch.setattr(sequences, "_tabulate", no_tables)
        # every seed counts: 400,001 grid points over 25 seeds
        with pytest.raises(ValueError, match=f"identity cassini asks for 10000025 points, "
                                             f"over the cap of {IDENTITY_POINT_CAP}"):
            verify_identity(Identity.CASSINI, {"n": (0, 400000)})
        # refused at once, however large: the corner scan reads no range in full
        with pytest.raises(ValueError, match="identity gib_partial_sum asks for 25000000000000 points"):
            verify_identity(Identity.GIB_PARTIAL_SUM, {"n": (1, 10**12)})


def _differential_cases():
    seeds = (FIBONACCI, Seed(-3, 7))
    for ident in Identity:
        for ranges in shifted_ranges(ident):
            yield ident, None, ranges, seeds
    yield Identity.LUCAS_FROM_FIB, PERTURBED, {"n": (0, 99)}, SMALL_SEED_GRID
    yield Identity.LUCAS_FROM_FIB, SEED_DEPENDENT, {"n": (0, 99)}, SMALL_SEED_GRID
    yield Identity.GIB_ADDITION, FALSE_AT_TWO_POINTS, {"m": (1, 4), "n": (1, 6)}, seeds
    yield Identity.LUCAS_FROM_FIB, NEGATED, {"n": (0, 10)}, seeds
    yield Identity.LUCAS_FROM_FIB, LONG_SUM, {"n": (0, 10)}, seeds
    yield Identity.GIB_PARTIAL_SUM, WRONG_SUM_START, {"n": (5, 12)}, seeds


def test_rows_match_the_pointwise_oracle(monkeypatch):
    # the row-at-a-time check against one point at a time: same points
    # checked, same seeds run, same failures in the same order
    for ident, sides, ranges, seeds in _differential_cases():
        if sides is not None:
            monkeypatch.setattr(ident, "sides", sides)
        got = verify_identity(ident, ranges, seeds)
        want = verify_identity_pointwise(ident, ranges, seeds)
        assert (got.checked, got.seeds, got.failures) == (
            want.checked, want.seeds, want.failures), (ident, ranges)
        monkeypatch.undo()


def test_grid_includes_canonical_seeds():
    grid = coprime_seed_grid(10)
    assert grid[0] == FIBONACCI and grid[1] == LUCAS
    assert all(math.gcd(s.g0, s.g1) == 1 for s in grid)
    assert Seed(1, 4) in grid
