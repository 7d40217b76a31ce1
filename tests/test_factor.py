import math

import pytest

from gibonacci.factor import trial_division

from conftest import divisors, factorize, is_probable_prime


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
    sympy = pytest.importorskip("sympy")
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


def test_factorize_roundtrip():
    for n in [1, 2, 60, 551, 832040, 6765, 10007 * 10009, 2**10 * 17711]:
        factors = factorize(n)
        assert math.prod(p**e for p, e in factors.items()) == n
        assert all(is_probable_prime(p) for p in factors)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(11) == [1, 11]


def test_is_probable_prime_against_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(limit + 1):
        assert is_probable_prime(n) == sieve[n], n


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        trial_division(0, 10)


def test_factorize_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from gibonacci.gcdsum import gcd_sum
    from gibonacci.sequences import FIBONACCI

    values = [gcd_sum(FIBONACCI, k).value for k in range(1, 151)]
    # both factors above the trial-division bound, so rho has to split them
    semiprimes = [10007 * 10009, 100003 * 1000003, (10**9 + 7) * (10**9 + 9),
                  1000003**2, 10007**3 * 1000033]
    for n in values + semiprimes:
        assert factorize(n) == sympy.factorint(n), n
