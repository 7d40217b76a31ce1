"""The term kernel: exact Fibonacci, Lucas and Gibonacci terms by fast doubling.

A Gibonacci sequence is any integer sequence satisfying
``G_n = G_{n-1} + G_{n-2}`` with arbitrary integer initial values
``(G_0, G_1)``.  Everything here is exact big-integer arithmetic; no
floating point is used anywhere.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(frozen=True)
class Seed:
    """Initial pair (g0, g1) of a Gibonacci sequence."""

    g0: int
    g1: int

    @property
    def delta(self) -> int:
        """gcd(G_0 + G_2, G_1 + G_3) = gcd(2 G_0 + G_1, G_0 + 3 G_1); 1 or 5 for coprime seeds."""
        return math.gcd(2 * self.g0 + self.g1, self.g0 + 3 * self.g1)

    @property
    def cassini(self) -> int:
        """G_1^2 - G_0 G_1 - G_0^2, the generalized Cassini constant (sign kept)."""
        return self.g1 * self.g1 - self.g0 * self.g1 - self.g0 * self.g0

    def require_nondegenerate(self) -> None:
        if self.g0 == 0 and self.g1 == 0:
            raise ValueError("seed (0, 0) is degenerate")

    def require_coprime(self) -> None:
        if math.gcd(self.g0, self.g1) != 1:
            raise ValueError(f"seed {(self.g0, self.g1)} must have coprime entries")

    def __str__(self) -> str:
        return f"({self.g0},{self.g1})"


FIBONACCI = Seed(0, 1)
LUCAS = Seed(2, 1)


@contextlib.contextmanager
def exact_decimal() -> Iterator[Any]:
    """Yield ``decimal.Decimal`` inside a local context wide enough to be
    exact, with Inexact trapped, so that any rounding raises instead of
    giving wrong digits; the caller's context is restored on exit.  The
    rounding is set too, though nothing rounds: it also picks the sign of
    an exact zero sum, and x - x is -0 under the caller's ROUND_FLOOR.

    ``decimal`` is imported here, not at the top: it takes 1.5-2.2 ms, and
    every CLI start imports this module.
    """
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        ctx.rounding = decimal.ROUND_HALF_EVEN
        ctx.traps[decimal.Inexact] = True
        yield decimal.Decimal


def fib_pair(j: int, m: int | None = None, *, zero: Any = 0) -> tuple[Any, Any]:
    """(F_j, F_{j+1}) for j >= 0, reduced to [0, m) given a modulus m >= 1.

    The package's one fast-doubling loop.  It carries (F_i, L_i) for the
    prefix i of j's bits read so far, and each bit costs one product and
    one square: F_{2i} = F_i L_i and L_{2i} = L_i^2 - 2(-1)^i, where i's
    parity is the bit read last.  A set bit then steps to 2i + 1 by
    F_{2i+1} = (F_{2i} + L_{2i})/2 and L_{2i+1} = (5 F_{2i} + L_{2i})/2,
    and the loop ends with F_{j+1} = (F_j + L_j)/2.  Every halving is
    exact, since F_i and L_i have the same parity (L_i = F_i + 2 F_{i-1}),
    so ``// 2`` halves an int and a ``decimal.Decimal`` alike.

    The loop is generic over the number type: it starts from the caller's
    zero, and the terms come back in that type.  ``zero=Decimal(0)``, in
    ``exact_decimal`` or another context exact enough for the operands,
    runs the chain in libmpdec, whose product of huge operands is a
    number-theoretic transform where CPython's int product is Karatsuba;
    the CLI does so for the terms and the even-k GCD values it prints.  A
    modulus needs the default int zero.

    Given m, each doubling is reduced mod 2m, where halving stays exact.
    The loop keeps f = F_i and l = L_i (mod m), and f + l = F_i + L_i
    (mod 2m), so f + l is even.  A doubling keeps this, since f l + l^2
    - L_i (F_i + L_i) = (l - L_i)(f + l) + L_i (f + l - F_i - L_i) is a
    multiple of 2m.  So does a set bit: f + l and 5 f + l = 4 f + (f + l)
    equal F_{2i} + L_{2i} and 5 F_{2i} + L_{2i} mod 2m, so both are even,
    and an even x = X (mod 2m) has x/2 = X/2 (mod m); the new f + l,
    which is 3 f + l, is right mod 2m, as 2 f is.  The pair is reduced
    mod m at the end.
    """
    mod = None if m is None else 2 * m
    f, l = zero, zero + 2  # (F_i, L_i), starting at i = 0
    odd = 0      # i mod 2
    for bit in range(j.bit_length() - 1, -1, -1):
        f, l = f * l, l * l + (2 if odd else -2)
        if mod is not None:
            f, l = f % mod, l % mod
        odd = j >> bit & 1
        if odd:
            f, l = (f + l) // 2, (5 * f + l) // 2
    f_next = (f + l) // 2
    return (f, f_next) if m is None else (f % m, f_next % m)


def gib_from_fib(g0: Any, g1: Any, n: int, f: Any, f_next: Any,
                 m: int | None = None) -> tuple[Any, Any]:
    """(G_n, G_{n+1}) from (G_0, G_1) = (g0, g1) and (F_j, F_{j+1}), j = |n|, mod m if given.

    The one place a power of the step matrix M is applied: M^n = [[F_{n-1}, F_n], [F_n, F_{n+1}]],
    so G_n = G_0 F_{n-1} + G_1 F_n, over all of Z once F_{-j} = (-1)^{j+1} F_j, and one pair
    serves n = j and n = -j.  The start may be a seed, a residue pair or (F_s, F_{s+1}), which
    gives (F_{n+s}, F_{n+s+1}), the product M^n M^s.
    """
    if n >= 0:
        f_prev = f_next - f
    else:
        sign = -1 if n & 1 else 1  # (-1)^j
        f_prev, f, f_next = sign * f_next, -sign * f, sign * (f_next - f)
    g, g_next = g0 * f_prev + g1 * f, g0 * f + g1 * f_next
    return (g, g_next) if m is None else (g % m, g_next % m)


def gib_pair(seed: Seed, n: int, m: int | None = None, *, zero: Any = 0) -> tuple[Any, Any]:
    """The adjacent terms (G_n, G_{n+1}) of the seed's sequence, for any integer n.

    The kernel for callers that read both terms: ``fib_pair`` gives
    (F_j, F_{j+1}) with j = |n| by fast doubling, and ``gib_from_fib``
    turns it into the seed's pair at n.  A single term costs less through
    ``gib_term``, whose chain stops one doubling earlier.  Given a modulus
    m >= 1, every doubling step is reduced mod 2m, so the operands stay
    the size of m, and the pair comes back reduced to [0, m).  ``zero`` is handed to ``fib_pair``, so the pair
    comes back in its number type.
    """
    if m is not None and m < 1:
        raise ValueError("modulus m must be >= 1")
    return gib_from_fib(seed.g0, seed.g1, n, *fib_pair(abs(n), m, zero=zero), m)


def _term(seed: Seed, n: int, zero: Any) -> Any:
    """G_n in the number type of ``zero``: one ``fib_pair`` chain, stopped
    one doubling short of n, and one product.  ``gib_term`` and the CLI's
    ``term`` both call this.

    For n = 2i or 2i + 1 >= 0 the chain gives (F_i, F_{i+1}), and L_i =
    2 F_{i+1} - F_i.  From G_n = G_0 F_{n-1} + G_1 F_n, F_{2i} = F_i L_i,
    L_{2i} = L_i^2 - 2(-1)^i and F_{2i-1}, F_{2i+1} = (L_{2i} -+ F_{2i})/2:

    * G_{2i} = L_i (G_0 L_i + (2 G_1 - G_0) F_i)/2 - (-1)^i G_0,
    * G_{2i+1} = L_i ((2 G_0 + G_1) F_i + G_1 L_i)/2 - (-1)^i G_1.

    Each halved factor is even, since L_i = F_i + 2 F_{i-1} has F_i's
    parity: G_0 (L_i - F_i) and G_1 (F_i + L_i) are even, and so are the
    factors, which differ from them by even multiples.  So ``// 2`` is
    exact on an int and a ``decimal.Decimal`` alike.  The last doubling of
    the chain would have cost a product and a square of the same size, and
    its square only fed G_{n+1}, which no caller here reads.

    For n = -j < 0: (-1)^j G_{-j} obeys the recurrence, as G_{-j} =
    G_{2-j} - G_{1-j}, and starts G_0, G_0 - G_1, which are H_1, H_2 for the
    seed H = (-G_1, G_0).  So G_{-j} is the term at j + 1 of the seed
    (-1)^j H, read as above from the chain at (j + 1) // 2.
    """
    g0, g1 = seed.g0, seed.g1
    if n < 0:  # the seed (-1)^j H, with j = -n
        g0, g1, n = (g1, -g0, 1 - n) if n & 1 else (-g1, g0, 1 - n)
    i = n >> 1
    f, f_next = fib_pair(i, zero=zero)
    l = 2 * f_next - f  # L_i
    sign = -1 if i & 1 else 1  # (-1)^i
    if n & 1:
        return l * (((2 * g0 + g1) * f + g1 * l) // 2) - sign * g1
    return l * ((g0 * l + (2 * g1 - g0) * f) // 2) - sign * g0


def fib(n: int) -> int:
    """The n-th Fibonacci number, for any integer n (F_{-n} = (-1)^{n+1} F_n)."""
    return _term(FIBONACCI, n, 0)


def lucas(n: int) -> int:
    """The n-th Lucas number (L_0 = 2, L_1 = 1), for any integer n."""
    return _term(LUCAS, n, 0)


def gib_term(seed: Seed, n: int, *, zero: Any = 0) -> Any:
    """The n-th term of the Gibonacci sequence with the given seed, for any
    integer n, in the number type of ``zero`` (see ``fib_pair``)."""
    return _term(seed, n, zero)


def window_sum(seed: Seed, n: int, k: int, *, zero: Any = 0) -> Any:
    """Sum of the k consecutive terms G_n + G_{n+1} + ... + G_{n+k-1}.

    Computed by the telescoped form G_{n+k+1} - G_{n+1}, in the number type
    of ``zero`` (see ``fib_pair``).
    """
    if k < 1:
        raise ValueError("window length k must be >= 1")
    if n < 1:
        raise ValueError("window start n must be >= 1")
    return _term(seed, n + k + 1, zero) - _term(seed, n + 1, zero)


def coprime_seed_grid(limit: int = 10) -> list[Seed]:
    """All seeds with coprime entries and |g0|, |g1| <= limit.

    (0,1) and (2,1) come first so the Fibonacci and Lucas cases always
    lead any scan over the grid.
    """
    grid = [FIBONACCI, LUCAS]
    for g0 in range(-limit, limit + 1):
        for g1 in range(-limit, limit + 1):
            s = Seed(g0, g1)
            if s in (FIBONACCI, LUCAS):
                continue
            if math.gcd(g0, g1) == 1:
                grid.append(s)
    return grid
