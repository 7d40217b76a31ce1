"""Exact arithmetic for Fibonacci, Lucas, and Gibonacci sequences.

A Gibonacci sequence is any integer sequence satisfying
``G_n = G_{n-1} + G_{n-2}`` with arbitrary integer initial values
``(G_0, G_1)``.  Everything here is exact big-integer arithmetic; no
floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class Seed:
    """Initial pair (g0, g1) of a Gibonacci sequence."""

    g0: int
    g1: int

    @property
    def is_degenerate(self) -> bool:
        return self.g0 == 0 and self.g1 == 0

    @property
    def is_coprime(self) -> bool:
        return math.gcd(self.g0, self.g1) == 1

    def require_nondegenerate(self) -> None:
        if self.is_degenerate:
            raise ValueError("seed (0, 0) is degenerate")

    def require_coprime(self) -> None:
        if not self.is_coprime:
            raise ValueError(f"seed {(self.g0, self.g1)} must have coprime entries")

    def __str__(self) -> str:
        return f"({self.g0},{self.g1})"


FIBONACCI = Seed(0, 1)
LUCAS = Seed(2, 1)


def gib_pair(seed: Seed, n: int) -> tuple[int, int]:
    """The adjacent terms (G_n, G_{n+1}) of the seed's sequence, for any integer n.

    The package's one term kernel: iterative fast doubling over the bits
    of |n| gives (F_m, F_{m+1}) with m = |n|, and G_n = G_0 F_{n-1} + G_1 F_n
    holds over all of Z once F is extended by F_{-m} = (-1)^{m+1} F_m.
    """
    m = abs(n)
    a, b = 0, 1  # (F_i, F_{i+1}) for the prefix i of m's bits read so far
    for bit in range(m.bit_length() - 1, -1, -1):
        c = a * (2 * b - a)  # F_{2i}
        d = a * a + b * b    # F_{2i+1}
        a, b = (d, c + d) if m >> bit & 1 else (c, d)
    if n >= 0:
        f_prev, f, f_next = b - a, a, b
    else:
        sign = -1 if m & 1 else 1  # (-1)^m
        f_prev, f, f_next = sign * b, -sign * a, sign * (b - a)
    return seed.g0 * f_prev + seed.g1 * f, seed.g0 * f + seed.g1 * f_next


def fib(n: int) -> int:
    """The n-th Fibonacci number, for any integer n (F_{-n} = (-1)^{n+1} F_n)."""
    return gib_pair(FIBONACCI, n)[0]


def lucas(n: int) -> int:
    """The n-th Lucas number (L_0 = 2, L_1 = 1), for any integer n."""
    return gib_pair(LUCAS, n)[0]


def gib_term(seed: Seed, n: int) -> int:
    """The n-th term of the Gibonacci sequence with the given seed, for any integer n."""
    return gib_pair(seed, n)[0]


def window_sum(seed: Seed, n: int, k: int) -> int:
    """Sum of the k consecutive terms G_n + G_{n+1} + ... + G_{n+k-1}.

    Computed by the telescoped form G_{n+k+1} - G_{n+1}.
    """
    if k < 1:
        raise ValueError("window length k must be >= 1")
    if n < 1:
        raise ValueError("window start n must be >= 1")
    return gib_term(seed, n + k + 1) - gib_term(seed, n + 1)


@dataclass(frozen=True)
class SeedInvariants:
    """The two seed parameters controlling GCD-of-sums behavior.

    delta = gcd(G_0 + G_2, G_1 + G_3); always 1 or 5 for coprime seeds.
    d = G_1^2 - G_0 G_1 - G_0^2, the generalized Cassini constant
    (sign preserved).
    """

    delta: int
    d: int

    @property
    def d_is_unit(self) -> bool:
        return self.d in (1, -1)


def seed_invariants(seed: Seed) -> SeedInvariants:
    seed.require_nondegenerate()
    g0, g1 = seed.g0, seed.g1
    g2 = g0 + g1
    g3 = g1 + g2
    delta = math.gcd(g0 + g2, g1 + g3)
    d = g1 * g1 - g0 * g1 - g0 * g0
    return SeedInvariants(delta=delta, d=d)


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


#: A fixed 25-seed subgrid used by the identity suites.  Covers both
#: delta classes (1 and 5), both signs of the Cassini constant, and the
#: worked (1,4) example with |d| = 11.
SMALL_SEED_GRID: tuple[Seed, ...] = (
    Seed(0, 1), Seed(2, 1), Seed(1, 4), Seed(1, 1), Seed(1, 2),
    Seed(1, 3), Seed(2, 3), Seed(3, 2), Seed(1, -1), Seed(-1, 2),
    Seed(3, 1), Seed(1, 5), Seed(5, 2), Seed(2, -1), Seed(-2, 1),
    Seed(4, 1), Seed(1, 10), Seed(10, 1), Seed(3, -5), Seed(-3, 7),
    Seed(7, 3), Seed(5, 8), Seed(8, 5), Seed(9, 4), Seed(-5, 3),
)


class _Progression:
    """The last parameter's whole range, passed to `sides` as one value.

    Adding, subtracting or multiplying by an int gives the progression of
    the shifted or scaled indices, so an index written ``2 * n + 1`` for a
    single n reads a whole row; ``(-1) ** n`` gives the row of signs.
    """

    __slots__ = ("indices",)

    def __init__(self, indices: range):
        self.indices = indices

    def __add__(self, k: int) -> _Progression:
        r = self.indices
        return _Progression(range(r.start + k, r.stop + k, r.step))

    __radd__ = __add__

    def __sub__(self, k: int) -> _Progression:
        return self + -k

    def __mul__(self, k: int) -> _Progression:
        r = self.indices
        return _Progression(range(r.start * k, r.stop * k, r.step * k))

    __rmul__ = __mul__

    def __rpow__(self, base: int) -> _Row:
        return _Row(base ** i for i in self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)


class _Row(list):
    """One side's values along a progression: a list whose ``+ - * **``
    act elementwise, with an int broadcast to every entry (on either side
    of ``+ * **``).  Rows compare as lists."""

    def _apply(self, op: Callable[[int, int], int], other: int | list[int]) -> _Row:
        if isinstance(other, list):
            return _Row(map(op, self, other))
        return _Row(map(op, self, itertools.repeat(other)))

    def __add__(self, other: int | list[int]) -> _Row:
        return self._apply(operator.add, other)

    def __sub__(self, other: int | list[int]) -> _Row:
        return self._apply(operator.sub, other)

    def __mul__(self, other: int | list[int]) -> _Row:
        return self._apply(operator.mul, other)

    def __pow__(self, other: int | list[int]) -> _Row:
        return self._apply(operator.pow, other)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rpow__(self, other: int) -> _Row:
        return _Row(other ** x for x in self)


class _TermTable:
    """F_n, L_n and G_n read from dense lists (L_n = F_{n-1} + F_{n+1}).

    The identity suite evaluates both sides of every identity at up to a
    million grid points; per-point fast doubling would dominate, so
    `verify_identity` tabulates F once per call and G once per seed, each
    over exactly the indices the identity's sides read.  An int index reads
    one term; a progression reads the row of its terms, one list slice.
    An index outside those spans would wrap round or raise instead of
    reading its term.
    """

    def __init__(self, f: tuple[int, list[int]], g: tuple[int, list[int]]):
        self._flo, self._f = f
        self._glo, self._g = g

    @staticmethod
    def _read(terms: list[int], lo: int, n: int | _Progression) -> int | _Row:
        """terms[n - lo] for an int n; for a progression, the row of them."""
        if isinstance(n, int):
            return terms[n - lo]
        r = n.indices
        start, stop = r.start - lo, r.stop - lo
        # a negative stop (a falling progression whose last index is lo)
        # would count from the end
        return _Row(terms[start:stop if stop >= 0 else None:r.step])

    def F(self, n: int | _Progression) -> int | _Row:
        return self._read(self._f, self._flo, n)

    def L(self, n: int | _Progression) -> int | _Row:
        return self.F(n - 1) + self.F(n + 1)

    def G(self, n: int | _Progression) -> int | _Row:
        return self._read(self._g, self._glo, n)


class _IndexRecorder:
    """Stands in for a _TermTable: records each index read and answers 0.

    A progression is recorded by its two end indices, since every index
    inside it lies between those two, and answered with a row holding one
    zero: the values are never read, and the row's size does not grow with
    the progression's.
    """

    def __init__(self) -> None:
        self.f: list[int] = []  # the F indices, those L reads included
        self.g: list[int] = []

    @staticmethod
    def _record(seen: list[int], n: int | _Progression) -> int | _Row:
        if isinstance(n, int):
            seen.append(n)
            return 0
        if n.indices:
            seen += (n.indices[0], n.indices[-1])
        return _Row([0])

    def F(self, n: int | _Progression) -> int | _Row:
        return self._record(self.f, n)

    def L(self, n: int | _Progression) -> int | _Row:
        return self.F(n - 1) + self.F(n + 1)

    def G(self, n: int | _Progression) -> int | _Row:
        return self._record(self.g, n)


def _tabulate(seed: Seed, indices: list[int]) -> tuple[int, list[int]]:
    """(lo, [G_lo, G_{lo+1}, ...]) covering min(indices) .. max(indices)."""
    if not indices:
        return 0, []
    lo, hi = min(indices), max(indices)
    g = list(gib_pair(seed, lo))
    for _ in range(lo + 2, hi + 1):
        g.append(g[-1] + g[-2])
    return lo, g


class Identity(Enum):
    """Executable identity families.

    Each member carries its own entry: ``params`` maps each parameter, in
    call order, to its domain floor (None: any integer), and ``sides``
    maps (table, seed, *params) to (lhs, rhs).  Every parameter but the
    last is an int; the last is a `_Progression` over its whole range, so
    each side is a `_Row` with one value per index of that range, written
    as if for a single index.  Both sides are always evaluated
    independently, never rewritten into each other.
    """

    params: dict[str, int | None]
    sides: Callable[..., tuple[int, int]]

    def __new__(cls, value: str, params: dict[str, int | None],
                sides: Callable[..., tuple[int, int]]) -> Identity:
        member = object.__new__(cls)
        member._value_ = value
        member.params = params
        member.sides = sides
        return member

    LUCAS_FROM_FIB = (  # L_n = F_{n+1} + F_{n-1}
        "lucas_from_fib", {"n": None},
        lambda t, s, n: (t.L(n), t.F(n + 1) + t.F(n - 1)))
    FIB_DOUBLE = (  # F_{2n} = F_n L_n
        "fib_double", {"n": None},
        lambda t, s, n: (t.F(2 * n), t.F(n) * t.L(n)))
    GIB_ADDITION = (  # G_{m+n} = F_{m-1} G_n + F_m G_{n+1}
        "gib_addition", {"m": 1, "n": 1},
        lambda t, s, m, n: (t.G(m + n), t.F(m - 1) * t.G(n) + t.F(m) * t.G(n + 1)))
    GIB_FROM_SEED = (  # G_i = G_0 F_{i-1} + G_1 F_i
        "gib_from_seed", {"n": 1},
        lambda t, s, n: (t.G(n), s.g0 * t.F(n - 1) + s.g1 * t.F(n)))
    # lhs by direct summation, one sum per n, on purpose: the telescoped
    # rhs is what window_sum uses, so the two sides must stay independent.
    GIB_PARTIAL_SUM = (  # sum_{i=1..n} G_i = G_{n+2} - G_2
        "gib_partial_sum", {"n": 1},
        lambda t, s, n: (_Row(sum(t.G(_Progression(range(1, k + 1)))) for k in n),
                         t.G(n + 2) - t.G(2)))
    CASSINI = (  # G_{n+1} G_{n-1} - G_n^2 = (-1)^n d
        "cassini", {"n": 0},
        lambda t, s, n: (t.G(n + 1) * t.G(n - 1) - t.G(n) ** 2,
                         (-1) ** n * (s.g1 * s.g1 - s.g0 * s.g1 - s.g0 * s.g0)))
    GAP_TWO_SUM = (  # G_{j-1} + G_{j+1} = G_0 L_{j-1} + G_1 L_j
        "gap_two_sum", {"n": 1},
        lambda t, s, n: (t.G(n - 1) + t.G(n + 1), s.g0 * t.L(n - 1) + s.g1 * t.L(n)))
    FIB_4J1 = (  # F_{4j+1} - 1 = F_{2j} L_{2j+1}
        "fib_4j_plus_1", {"n": 0},
        lambda t, s, n: (t.F(4 * n + 1) - 1, t.F(2 * n) * t.L(2 * n + 1)))
    FIB_4J3 = (  # F_{4j+3} - 1 = F_{2j+2} L_{2j+1}
        "fib_4j_plus_3", {"n": 0},
        lambda t, s, n: (t.F(4 * n + 3) - 1, t.F(2 * n + 2) * t.L(2 * n + 1)))
    FIB_4J4 = (  # F_{4j+4} - 1 = F_{2j+3} L_{2j+1}
        "fib_4j_plus_4", {"n": 0},
        lambda t, s, n: (t.F(4 * n + 4) - 1, t.F(2 * n + 3) * t.L(2 * n + 1)))
    FIB_SHIFT_FAMILY = (  # F_{4j+r+1} - F_{r-1} = F_{2j+r} L_{2j+1}
        "fib_shift_family", {"r": None, "j": None},
        lambda t, s, r, j: (t.F(4 * j + r + 1) - t.F(r - 1), t.F(2 * j + r) * t.L(2 * j + 1)))
    GIB_4J1 = (  # G_{4j+1} - G_1 = F_{2j}(G_{2j} + G_{2j+2})
        "gib_4j_plus_1", {"n": 0},
        lambda t, s, n: (t.G(4 * n + 1) - t.G(1), t.F(2 * n) * (t.G(2 * n) + t.G(2 * n + 2))))
    GIB_4J2 = (  # G_{4j+2} - G_2 = F_{2j}(G_{2j+1} + G_{2j+3})
        "gib_4j_plus_2", {"n": 0},
        lambda t, s, n: (t.G(4 * n + 2) - t.G(2), t.F(2 * n) * (t.G(2 * n + 1) + t.G(2 * n + 3))))
    GIB_4J3 = (  # G_{4j+3} - G_1 = L_{2j+1} G_{2j+2}
        "gib_4j_plus_3", {"n": 0},
        lambda t, s, n: (t.G(4 * n + 3) - t.G(1), t.L(2 * n + 1) * t.G(2 * n + 2)))
    GIB_4J4 = (  # G_{4j+4} - G_2 = L_{2j+1} G_{2j+3}
        "gib_4j_plus_4", {"n": 0},
        lambda t, s, n: (t.G(4 * n + 4) - t.G(2), t.L(2 * n + 1) * t.G(2 * n + 3)))


@dataclass
class IdentityReport:
    """Outcome of checking one identity family over a parameter grid."""

    identity: Identity
    ranges: dict[str, tuple[int, int]]
    seeds: tuple[Seed, ...]
    checked: int
    failures: list[tuple[Seed, tuple[int, ...], int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


#: The most grid points, seeds included, that one `verify_identity` call
#: checks; a larger request is refused before any term is tabulated.
IDENTITY_POINT_CAP = 10**7


def verify_identity(
    identity: Identity,
    ranges: dict[str, tuple[int, int]],
    seeds: Iterable[Seed] = SMALL_SEED_GRID,
) -> IdentityReport:
    """Evaluate both sides of an identity exactly over a parameter grid.

    `ranges` maps each parameter name of the identity to an inclusive
    (lo, hi) pair; any range at or above the identity's domain floors is
    valid, negative indices included.  The term tables span exactly the
    indices the identity's own sides read.  An identity whose sides read
    no G term is checked once, for the Fibonacci seed; the others once
    per seed.  A request over IDENTITY_POINT_CAP points (seeds times grid
    points) is a ValueError, raised before any table is built.

    The sides are evaluated one row at a time: each combination of the
    other parameters, with the last parameter's whole range as one
    progression.  Only a row whose two sides differ is walked point by
    point, so every failing point is still recorded as (seed, point, lhs,
    rhs), in seed order and then grid order.
    """
    if not isinstance(identity, Identity):
        raise ValueError(f"unknown identity {identity!r}")
    for p, floor in identity.params.items():
        if p not in ranges:
            raise ValueError(f"identity {identity.value} needs a range for {p!r}")
        lo, hi = ranges[p]
        if lo > hi:
            raise ValueError(
                f"identity {identity.value} has an empty range for {p!r}: [{lo}, {hi}]")
        if floor is not None and lo < floor:
            raise ValueError(f"identity {identity.value} requires {p} >= {floor}")

    box = [ranges[p] for p in identity.params]
    # Reading the sides at the box's corners finds the exact spans, because
    # every index a side reads is affine in the parameters (a sum's bounds
    # too) and never depends on a term's value: its extremes lie at corners.
    # The last parameter goes in as a one-term progression, so the scan's
    # cost does not grow with the ranges.  A side reads the seed's entries
    # only next to G terms, so a G read is what makes the identity depend
    # on the seed.
    reads = _IndexRecorder()
    for *corner, n in itertools.product(*box):
        identity.sides(reads, FIBONACCI, *corner, _Progression(range(n, n + 1)))
    seed_tuple = tuple(seeds) if reads.g else (FIBONACCI,)
    axes = [range(lo, hi + 1) for lo, hi in box]
    per_seed = math.prod(map(len, axes))
    if len(seed_tuple) * per_seed > IDENTITY_POINT_CAP:
        raise ValueError(
            f"identity {identity.value} asks for {len(seed_tuple) * per_seed} points, "
            f"over the cap of {IDENTITY_POINT_CAP}")
    f = _tabulate(FIBONACCI, reads.f)

    *outer_axes, last_axis = axes
    last = _Progression(last_axis)
    report = IdentityReport(identity, dict(ranges), seed_tuple, checked=0)
    for seed in seed_tuple:
        table = _TermTable(f, _tabulate(seed, reads.g))
        for pt in itertools.product(*outer_axes):
            lhs, rhs = identity.sides(table, seed, *pt, last)
            if lhs != rhs:
                for n, a, b in zip(last, lhs, rhs, strict=True):
                    if a != b:
                        report.failures.append((seed, (*pt, n), a, b))
        report.checked += per_seed
    return report


def default_identity_ranges(
    identity: Identity, lo: int | None = None, hi: int | None = None
) -> dict[str, tuple[int, int]]:
    """The standard suite ranges: [0, 200] per parameter, and [-10, 10]
    for the two-sided shift family.  A given lo or hi replaces that bound
    for every family; lo is then lifted to each parameter's domain floor."""
    base_lo, base_hi = (-10, 10) if identity is Identity.FIB_SHIFT_FAMILY else (0, 200)
    lo = base_lo if lo is None else lo
    hi = base_hi if hi is None else hi
    return {p: (lo if floor is None else max(lo, floor), hi)
            for p, floor in identity.params.items()}
