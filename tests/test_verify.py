"""Each scoreboard check must fail, and name its counterexample, when the
value it compares is wrong.

Every test plants one fault by monkeypatching a name the check reads, and
shrinks the seed grid so the check stays fast.
"""

import dataclasses

import pytest

from gibonacci import applications, gcdsum, identities, pisano, sequences, verify
from gibonacci.identities import Identity, verify_identity
from gibonacci.sequences import FIBONACCI, LUCAS, coprime_seed_grid

SEED_14 = verify.SEED_14


@pytest.fixture(autouse=True)
def small_grid(monkeypatch):
    monkeypatch.setattr(verify, "_grid", lambda: [FIBONACCI, LUCAS, SEED_14])


def plant(monkeypatch, module, name, fault):
    """Rebind module.name so that each call's result passes through
    fault(result, *args, **kwargs)."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: fault(real(*a, **kw), *a, **kw))


def failed_detail(criterion: int) -> str:
    result = verify.run_check(criterion)
    assert result.passed is False
    return result.detail


def test_table_conformance_reports_a_mismatch(monkeypatch):
    plant(monkeypatch, gcdsum, "classify", lambda c, seed, k: dataclasses.replace(
        c, actual=c.actual + 1) if (seed, k) == (LUCAS, 8) else c)
    assert failed_detail(4).endswith("mismatches=[(Seed(g0=2, g1=1), 8, 15, 16)]")


def test_table_conformance_reports_a_missing_prediction(monkeypatch):
    plant(monkeypatch, gcdsum, "classify", lambda c, seed, k: dataclasses.replace(
        c, predicted=None) if (seed, k) == (LUCAS, 8) else c)
    assert failed_detail(4).endswith("mismatches=[(Seed(g0=2, g1=1), 8, None, 15)]")


def test_table_conformance_asks_classify_only_where_the_table_applies(monkeypatch):
    grid = coprime_seed_grid(10)
    monkeypatch.setattr(verify, "_grid", lambda: grid)
    asked = set()
    plant(monkeypatch, gcdsum, "classify", lambda c, seed, k: asked.add((seed, k)) or c)
    assert verify.run_check(4).detail == "applicable=16800 mismatches=[]"
    monkeypatch.undo()
    # the skipped calls, made here: the table must make no claim at exactly those pairs
    for seed in grid:
        for k in range(1, 121):
            predicts = gcdsum.classify(seed, k).predicted is not None
            assert predicts == ((seed, k) in asked), (seed, k)


def test_method_agreement_reports_a_brute_mismatch(monkeypatch):
    def bump(g, seed, top):
        if seed == SEED_14:
            g[30] += 1
        return g

    plant(monkeypatch, verify, "_seed_tables", bump)
    detail = failed_detail(5)
    assert detail.startswith("mismatches=[('brute', Seed(g0=1, g1=4), ")
    assert "'lcm'" not in detail


def test_method_agreement_reports_an_lcm_mismatch(monkeypatch):
    plant(monkeypatch, gcdsum, "gcd_sum_lcm", lambda r, seed, k, bound: dataclasses.replace(
        r, value=2 * r.value) if (seed, k) == (SEED_14, 5) else r)
    assert failed_detail(5) == "mismatches=[('lcm', Seed(g0=1, g1=4), 5, 22, 11)]"


def test_divisibility_biconditional_reports_a_violation(monkeypatch):
    # F_8 = 21 is the k = 16 value: 7 divides it, so the period mod 7 must divide 16
    def entry_7_reads_17(periods, seed, m_max):
        if seed == FIBONACCI:
            periods[7] = 17
        return periods

    plant(monkeypatch, pisano, "period_table", entry_7_reads_17)
    assert failed_detail(6).startswith("violations=[(Seed(g0=0, g1=1), 7, 16), ")


def test_identity_suite_reports_a_failing_family(monkeypatch):
    ranges = identities.default_identity_ranges
    monkeypatch.setattr(identities, "default_identity_ranges",
                        lambda ident, lo, hi: ranges(ident, lo, 8))
    # F_{2n} = F_n L_n, with L_n misread as F_n
    monkeypatch.setattr(Identity.FIB_DOUBLE, "sides", lambda t, s, n: (t.F(2 * n), t.F(n) * t.F(n)))
    detail = failed_detail(7)
    assert "failing_families=[('fib_double', [(" in detail
    assert detail.count("', [(") == 1


def test_parity_scan_reports_an_odd_period(monkeypatch):
    plant(monkeypatch, pisano, "parity_scan", lambda r, seed, m_max: dataclasses.replace(
        r, odd_period_moduli=[(7, 15)]) if seed == LUCAS else r)
    assert failed_detail(8) == ("even_period_seeds=2 bad=[(Seed(g0=2, g1=1), [(7, 15)])] "
                                "seed_1_4_has_(11,5)=True")


def test_parity_scan_reports_a_difference_from_the_table(monkeypatch):
    # the scan of (1, 4) loses (22, 15) but keeps (11, 5)
    plant(monkeypatch, pisano, "parity_scan", lambda r, seed, m_max: dataclasses.replace(
        r, odd_period_moduli=r.odd_period_moduli[:1]) if seed == SEED_14 else r)
    assert failed_detail(8) == ("even_period_seeds=2 bad=[(Seed(g0=1, g1=4), [(11, 5)])] "
                                "seed_1_4_has_(11,5)=True")


def test_parity_scan_reports_an_odd_table_entry_the_scan_missed(monkeypatch):
    def entry_7_reads_15(periods, seed, m_max):
        if seed == FIBONACCI:
            periods[7] = 15
        return periods

    plant(monkeypatch, pisano, "period_table", entry_7_reads_15)
    assert failed_detail(8) == ("even_period_seeds=2 bad=[(Seed(g0=0, g1=1), [])] "
                                "seed_1_4_has_(11,5)=True")


def test_max_modulus_reports_a_period_mismatch(monkeypatch):
    plant(monkeypatch, applications, "period_from_multiple",
          lambda p, seed, m, n, primes: 10 if m == 55 else p)
    assert failed_detail(10) == "k=20: period of modulus 55 is 10, expected 20"


def test_lucas_from_gcd_reports_a_mismatch(monkeypatch):
    plant(monkeypatch, applications, "lucas_from_gcd",
          lambda v, seed, j: v + 1 if (seed, j) == (LUCAS, 7) else v)
    assert failed_detail(11) == "mismatches=[(Seed(g0=2, g1=1), 7, 30, 29)]"


def test_lucas_from_gcd_reads_each_lucas_number_once(monkeypatch):
    calls = []
    plant(monkeypatch, sequences, "lucas", lambda v, j: calls.append(j) or v)
    assert verify.run_check(11).passed
    assert calls == list(range(1, 42, 2))


def test_prime_restriction_reports_a_forbidden_prime(monkeypatch):
    plant(monkeypatch, applications, "gcd_sum",
          lambda r, seed, k: dataclasses.replace(r, value=3 * r.value))
    assert failed_detail(12).startswith("violations=[(Seed(g0=0, g1=1), 1, (3,), 1), ")


def test_squares_tables_report_a_table_mismatch(monkeypatch):
    plant(monkeypatch, applications, "squares_gcd", lambda r, seed, k: dataclasses.replace(
        r, value=r.value + 1) if k == 5 else r)
    assert failed_detail(13) == "table_mismatches=[(5, 2, 1)] prediction_mismatches=[]"


def test_squares_tables_report_a_prediction_mismatch(monkeypatch):
    plant(monkeypatch, applications, "squares_gcd", lambda r, seed, k: dataclasses.replace(
        r, predicted=r.predicted + 1) if k == 10 else r)
    assert failed_detail(13) == "table_mismatches=[] prediction_mismatches=[(10, 55, 56)]"


def test_run_check_rejects_an_unknown_number():
    with pytest.raises(ValueError, match="no check numbered 15"):
        verify.run_check(15)


def test_verify_identity_rejects_a_name():
    with pytest.raises(ValueError, match="unknown identity 'fib_double'"):
        verify_identity("fib_double", {"n": (0, 8)})
