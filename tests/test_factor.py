import math

import pytest
import sympy

from gibonacci.factor import trial_division


def test_trial_division_complete():
    factors, cofactor = trial_division(2**4 * 3**2, 10)
    assert factors == {2: 4, 3: 2} and cofactor == 1


def test_trial_division_reports_cofactor():
    factors, cofactor = trial_division(6 * 10007 * 10009, 100)
    assert factors == {2: 1, 3: 1}
    assert cofactor == 10007 * 10009


def test_trial_division_detects_prime_cofactor_below_square():
    # 97 has no factor <= 9, but 10^2 > 97 proves it prime
    factors, cofactor = trial_division(97, 10)
    assert factors == {97: 1} and cofactor == 1


def first_trial_divisor_above(bound: int) -> int:
    """The first of trial division's candidates 2, 3, 5, 7, 9, ... past bound."""
    if bound < 2:
        return 2
    return bound + 1 if bound % 2 == 0 else bound + 2


def test_trial_division_matches_sympy():
    semiprimes = [10007 * 10009, 97 * 101, 2 * 3 * 1000003, 2**5 * 101**2, 999983**2]
    for n in [*range(1, 3001), *semiprimes]:
        factors = sympy.factorint(n)
        for bound in (1, 2, 3, 4, 7, 10, 50, 101, 1000):
            q = first_trial_divisor_above(bound)
            expected = {p: e for p, e in factors.items() if p <= bound}
            rest = n // math.prod(p**e for p, e in expected.items())
            # the rest has no prime <= bound; below q^2 it is 1 or prime
            if 1 < rest < q * q:
                assert sympy.isprime(rest), (n, bound)
                expected[rest] = 1
                rest = 1
            assert trial_division(n, bound) == (expected, rest), (n, bound)


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        trial_division(0, 10)
