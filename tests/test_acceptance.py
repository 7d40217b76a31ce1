"""Acceptance gate: the full verification scoreboard must be green.

Each criterion runs at its exact stated scope (no tolerances anywhere:
all quantities are integers) and prints one pass/fail line.
"""

import pytest

from gibonacci import gcdsum, pisano, sequences, verify
from gibonacci.sequences import FIBONACCI, Seed


# Each check's detail exactly as `gibonacci verify --format json` prints it,
# so that output is pinned by the same run that checks the scoreboard.
DETAILS = {
    1: "closed=55 brute=55 expected=55",
    2: "sums=[55, 88, 143, 231] value=11 period_mod_11=5 lcm=11",
    3: "value=832040 period=60 expected value=832040 period=60",
    4: "applicable=16800 mismatches=[]",
    5: "mismatches=[]",
    6: "violations=[]",
    7: "points=1041571 failing_families=[]",
    8: "even_period_seeds=25 bad=[] seed_1_4_has_(11,5)=True",
    9: "entries=36 mismatches=[]",
    10: "checked even k in [6, 40]; m_f(40)=6765",
    11: "mismatches=[]",
    12: "violations=[]",
    13: "table_mismatches=[] conjecture_findings=[]",
    14: "violations=[] period(10)=60:True",
}


@pytest.mark.parametrize(
    "criterion,name,fn",
    verify.CHECKS,
    ids=[f"{crit:02d}-{name}" for crit, name, _ in verify.CHECKS],
)
def test_criterion(criterion, name, fn, capsys):
    result = verify.run_check(criterion)
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] criterion {criterion:2d} {name} ({result.elapsed:.2f}s)")
    assert result.passed, f"criterion {criterion} ({name}): {result.detail}"
    assert result.detail == DETAILS[criterion]


def test_criterion_numbers_are_complete():
    assert [crit for crit, _, _ in verify.CHECKS] == list(range(1, 15))


# Direct spot checks of the headline reproductions, independent of the
# scoreboard plumbing.

def test_twenty_consecutive_fibonacci_gcd_is_55():
    assert gcdsum.gcd_sum(FIBONACCI, 20).value == 55


def test_seed_1_4_headline_values():
    seed = Seed(1, 4)
    assert [sequences.window_sum(seed, n, 5) for n in range(1, 5)] == [55, 88, 143, 231]
    assert gcdsum.gcd_sum(seed, 5).value == 11
    assert pisano.pisano_period(seed, 11) == 5


def test_largest_modulus_with_period_60():
    assert gcdsum.gcd_sum(FIBONACCI, 60).value == 832040
    assert pisano.pisano_period(FIBONACCI, 832040) == 60
