"""The term kernel: exact Fibonacci, Lucas and Gibonacci terms by fast doubling.

A Gibonacci sequence is any integer sequence satisfying
``G_n = G_{n-1} + G_{n-2}`` with arbitrary integer initial values
``(G_0, G_1)``.  Everything here is exact big-integer arithmetic; no
floating point is used anywhere.
"""

from __future__ import annotations

import contextlib
import math
from typing import Any, Iterator, NamedTuple


def _number_name(n: int, noun: str = "modulus") -> object:
    """n itself in an error message, or over 160 bits its bit length, as "a b-bit <noun>":
    str of an int over 4300 digits raises under CPython's default int/str limit."""
    return n if n.bit_length() <= 160 else f"a {n.bit_length()}-bit {noun}"


class Seed(NamedTuple):
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
            raise ValueError(f"seed ({_number_name(self.g0, 'entry')}, "
                             f"{_number_name(self.g1, 'entry')}) must have coprime entries")

    def __str__(self) -> str:
        return f"({_number_name(self.g0, 'entry')},{_number_name(self.g1, 'entry')})"


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


_terms = [1, 0]
while len(_terms) < 258:
    _terms.append(_terms[-2] + _terms[-1])
#: F_{-1}, F_0, F_1, ..., F_256 by the recurrence: entry k + 1 is F_k.
FIB_TABLE = tuple(_terms)
del _terms


def fib_pair(j: int, m: int | None = None, *, zero: Any = 0) -> tuple[Any, Any]:
    """(F_j, F_{j+1}) for j >= 0, reduced to [0, m) given a modulus m >= 1.

    The package's one fast-doubling loop.  It carries (F_k, F_{k-1}) for
    the prefix k of j's bits read so far, starting from j's top 8 bits,
    read from ``FIB_TABLE``.  So j < 256 runs no doubling, and a longer
    chain skips the 8 doublings on the smallest operands, where the
    interpreter's per-bit work costs more than the products; ``verify``
    makes tens of thousands of such chains.  A 10- or 12-bit table gained
    nothing more there, and a 12-bit one would hold 0.7 MB.  Each bit
    below the top 8 costs two squares, a = F_k^2 and b = F_{k-1}^2:

    * F_{2k-1} = a + b,
    * F_{2k+1} = 4a - b + 2(-1)^k, where k's parity is the bit read last,

    and F_{2k} is their difference, so a clear bit steps to (F_{2k},
    F_{2k-1}) and a set bit to (F_{2k+1}, F_{2k}).  Both come from M^k =
    [[F_{k-1}, F_k], [F_k, F_{k+1}]], M the step matrix: M^{2k} = (M^k)^2
    gives F_{2k-1} = F_{k-1}^2 + F_k^2 and F_{2k+1} = F_k^2 + F_{k+1}^2 =
    2a + b + 2 F_k F_{k-1}, and Cassini's identity F_{k+1} F_{k-1} - F_k^2
    = (-1)^k, with F_{k+1} = F_k + F_{k-1}, reads F_k F_{k-1} = a - b +
    (-1)^k, so F_{2k+1} = 2a + b + 2(a - b + (-1)^k).

    The loop is generic over the number type: it starts from the caller's
    zero, and the terms come back in that type.  ``zero=Decimal(0)``, in
    ``exact_decimal`` or another context exact enough for the operands,
    runs the chain in libmpdec, whose product of huge operands is a
    number-theoretic transform where CPython's int product is Karatsuba;
    the CLI does so for the terms and the even-k GCD values it prints.  A
    modulus with another zero is a ValueError: Decimal ``%`` keeps signs.

    Every step is a ring operation, so given m the squares are reduced mod
    m, which keeps the operands the size of m, and the pair at the end.
    """
    if m is not None and not isinstance(zero, int):
        raise ValueError("a modulus needs the int zero")
    s = max(j.bit_length() - 8, 0)
    k = j >> s
    f, g = zero + FIB_TABLE[k + 1], zero + FIB_TABLE[k]  # (F_k, F_{k-1})
    odd = k & 1
    for bit in range(s - 1, -1, -1):
        a, b = f * f, g * g
        if m is not None:
            a, b = a % m, b % m
        f, g = 4 * a - b + (-2 if odd else 2), a + b  # (F_{2k+1}, F_{2k-1})
        odd = j >> bit & 1
        if odd:
            g = f - g  # F_{2k}
        else:
            f -= g
    f_next = f + g
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
    elif n & 1:  # j odd: F_{-j} = F_j
        f_prev, f, f_next = -f_next, f, f - f_next
    else:
        f_prev, f, f_next = f_next, -f, f_next - f
    g, g_next = g0 * f_prev + g1 * f, g0 * f + g1 * f_next
    return (g, g_next) if m is None else (g % m, g_next % m)


def gib_pair(seed: Seed, n: int, m: int | None = None) -> tuple[int, int]:
    """The adjacent terms (G_n, G_{n+1}) of the seed's sequence, for any integer n.

    The kernel for callers that read both terms: ``fib_pair`` gives
    (F_j, F_{j+1}) with j = |n| by fast doubling, and ``gib_from_fib``
    turns it into the seed's pair at n.  A single term costs less through
    ``gib_term``, whose chain stops one doubling earlier, at i = n >> 1:
    G_n = L_i G_{i+e} - (-1)^i G_e with e = n & 1, as G_{m+j} + (-1)^j
    G_{m-j} = L_j G_m obeys the recurrence in m and holds at m = 0 and 1.
    Given a modulus m >= 1, every doubling step is reduced mod m, so the
    operands stay the size of m, and the pair comes back reduced to [0, m).
    """
    if m is not None and m < 1:
        raise ValueError("modulus m must be >= 1")
    return gib_from_fib(seed.g0, seed.g1, n, *fib_pair(abs(n), m), m)


def _term(seed: Seed, n: int, zero: Any) -> Any:
    """G_n in the number type of ``zero``: one ``fib_pair`` chain, stopped
    one doubling short of n, and one product.  ``gib_term`` and the CLI's
    ``term`` both call this.

    With i = n >> 1 and e = n & 1, the chain at |i| gives G_{i+e} and L_i
    (the seed (2, 1)) through ``gib_from_fib``, and G_n = L_i G_{i+e} -
    (-1)^i G_e, by G_{m+j} + (-1)^j G_{m-j} = L_j G_m at m = i + e, j = i:
    both sides obey the recurrence in m and read L_j G_0 and L_j G_1 at
    m = 0 and 1, by G_n = G_0 F_{n-1} + G_1 F_n, F_{-j} = (-1)^{j+1} F_j and
    L_j = F_{j-1} + F_{j+1}.  Running the chain on to n would have cost two
    squares of that size in its last doubling, where this costs one product.
    """
    i, e = n >> 1, n & 1
    f, f_next = fib_pair(abs(i), zero=zero)
    g = gib_from_fib(seed.g0, seed.g1, i, f, f_next)[e]  # G_{i+e}
    l = gib_from_fib(2, 1, i, f, f_next)[0]  # L_i
    g_e = seed.g1 if e else seed.g0
    return l * g + (g_e if i & 1 else -g_e)  # adding an int turns a Decimal -0 into 0


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
