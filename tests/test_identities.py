import inspect
import random

import pytest

from gibonacci import identities
from gibonacci.identities import (
    IDENTITY_POINT_CAP,
    SMALL_SEED_GRID,
    Identity,
    _Progression,
    _Row,
    default_identity_ranges,
    run_families,
    verify_identity,
)
from gibonacci.sequences import FIBONACCI, Seed, fib

from conftest import naive_gib_terms, verify_identity_pointwise

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


class TestVerifyIdentity:
    def test_cassini_fibonacci_clean(self):
        report = verify_identity(Identity.CASSINI, {"n": (0, 100)}, [FIBONACCI])
        assert not report.failures and report.checked == 101

    def test_shift_family_two_sided(self):
        report = verify_identity(
            Identity.FIB_SHIFT_FAMILY, {"r": (-10, 10), "j": (-10, 10)}
        )
        assert not report.failures and report.checked == 441

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
        assert not report.failures and report.checked == size * size, report.failures[:3]

    def test_every_family_clean_on_shifted_ranges(self):
        seeds = [FIBONACCI, Seed(-3, 7)]
        for ident in Identity:
            for ranges in shifted_ranges(ident):
                report = verify_identity(ident, ranges, seeds)
                assert not report.failures, (ident, ranges, report.failures[:3])

    def test_all_families_clean_on_suite_ranges(self, grid25):
        for ident in Identity:
            ranges = default_identity_ranges(ident, 0, 40)
            report = verify_identity(ident, ranges, grid25)
            assert not report.failures, (ident, report.failures[:3])

    def test_domain_floor_enforced(self):
        with pytest.raises(ValueError):
            verify_identity(Identity.GAP_TWO_SUM, {"n": (0, 10)})

    def test_missing_range_rejected(self):
        with pytest.raises(ValueError):
            verify_identity(Identity.GIB_ADDITION, {"m": (1, 5)})

    def test_point_cap_refuses_before_any_table(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a term table was built")

        monkeypatch.setattr(identities, "_tabulate", no_tables)
        # every seed counts: 400,001 grid points over 25 seeds
        with pytest.raises(ValueError, match=f"identity cassini asks for 10000025 points, "
                                             f"over the cap of {IDENTITY_POINT_CAP}"):
            verify_identity(Identity.CASSINI, {"n": (0, 400000)})
        # refused at once, however large: the corner scan reads no range in full
        with pytest.raises(ValueError, match="identity gib_partial_sum asks for 25000000000000 points"):
            verify_identity(Identity.GIB_PARTIAL_SUM, {"n": (1, 10**12)})

    def test_point_cap_sizes_a_range_longer_than_len_can_count(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a term table was built")

        monkeypatch.setattr(identities, "_tabulate", no_tables)
        # len() of a range over more than 2^63 - 1 items is an OverflowError
        with pytest.raises(ValueError, match=f"^identity cassini asks for {25 * (2**63 + 1)} "
                                             f"points, over the cap of {IDENTITY_POINT_CAP}$"):
            verify_identity(Identity.CASSINI, {"n": (0, 2**63)})
        # a count over 160 bits is named by its length, under any int/str digit limit
        with pytest.raises(ValueError, match=f"^identity cassini asks for a 16615-bit number "
                                             f"of points, over the cap of {IDENTITY_POINT_CAP}$"):
            verify_identity(Identity.CASSINI, {"n": (0, 10**5000)})

    def test_run_point_cap_refuses_before_any_table(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a term table was built")

        monkeypatch.setattr(identities, "_tabulate", no_tables)
        # at hi = 616 every family is under its own cap, but not the run
        for i in Identity:
            identities.check_identity_request(i, default_identity_ranges(i, hi=616))
        with pytest.raises(ValueError, match=f"^the 15 identity families ask for 10005939 "
                                             f"points in all, over the cap of {IDENTITY_POINT_CAP}$"):
            run_families(Identity, hi=616)

    def test_table_bit_cap_refuses_before_any_table(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("a term table was built")

        monkeypatch.setattr(identities, "_tabulate", no_tables)
        # L_n reads F_{n-1} and F_{n+1}: one F table over [-1, hi + 1], and
        # 41,576 points, far under the points cap
        identities.check_identity_request(Identity.LUCAS_FROM_FIB, {"n": (0, 41575)})
        with pytest.raises(ValueError, match=(
                r"^identity lucas_from_fib asks for term tables of about 600027781 bits, "
                rf"over the cap of {identities.IDENTITY_TABLE_BIT_CAP}$")):
            verify_identity(Identity.LUCAS_FROM_FIB, {"n": (0, 41576)})

    def test_table_bits_estimate_the_terms_bit_lengths(self):
        # within a bit a term, on spans on either side of 0 and across it
        rng = random.Random(22)
        for _ in range(100):
            lo = rng.randrange(-3000, 3000)
            hi = lo + rng.randrange(3000)
            exact = sum(abs(fib(n)).bit_length() for n in range(lo, hi + 1))
            assert abs(identities._table_bits([hi, lo, hi]) - exact) <= hi - lo + 1, (lo, hi)
        assert identities._table_bits([]) == 0


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
