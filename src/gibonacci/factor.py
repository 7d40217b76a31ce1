"""Small-integer factorization: trial division with a Pollard rho fallback.

The values factored here (GCD-of-sums values, Fibonacci/Lucas moduli at
desk scale) are small, so trial division almost always finishes the job;
rho only kicks in for the occasional larger semiprime cofactor.
"""

from __future__ import annotations

import math


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Floyd's cycle finding)."""
    if n % 2 == 0:
        return 2
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise AssertionError(f"pollard rho found no factor of {n}")


def factorize(n: int) -> dict[int, int]:
    """Complete prime factorization of n >= 1."""
    factors, cofactor = trial_division(n, 10_000)
    stack = [cofactor] if cofactor > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors
