"""Trial division, the only factoring the library does.

No caller divides past ``pisano.TRIAL_DIVISION_BOUND`` = B.  ``pisano_period``
factors m up to B; ``pisano._wall_multiple`` factors Wall's multiple W(p)
of a prime p whole, for ``pisano_period`` and ``period_table``, and stops
below B too, since every such p is below (B + 1)^2 and W(p) is at most
2(p + 1); ``prime_restriction_check`` strips the primes up to a given
bound, at most B, off a GCD-of-sums value and reports the cofactor left;
``max_modulus_for_period`` factors k <= 2.7*10^6 whole.
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
