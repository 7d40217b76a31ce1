"""Trial division, the only factoring the library does.

``applications.prime_restriction_check`` strips the small primes off a
GCD-of-sums value and reports whatever cofactor is left unfactored.
"""

from __future__ import annotations


def trial_division(n: int, bound: int) -> tuple[dict[int, int], int]:
    """Factor out all prime factors <= bound; return (factors, cofactor)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    factors: dict[int, int] = {}
    p = 2
    while p <= bound and p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1 and p * p > n:
        # no divisor up to sqrt(n): the cofactor is prime
        factors[n] = factors.get(n, 0) + 1
        n = 1
    return factors, n
