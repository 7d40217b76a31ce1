"""The identity suite: the paper's identities checked exactly over parameter grids."""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple

from .sequences import FIBONACCI, Seed, _number_name, gib_pair

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


class _IndexRecorder(_TermTable):
    """A _TermTable that records each index read and answers 0.

    A progression is recorded by its two end indices, since every index
    inside it lies between those two, and answered with a row holding one
    zero: the values are never read, and the row's size does not grow with
    the progression's.
    """

    def __init__(self) -> None:
        self.f: list[int] = []  # the F indices, those L reads included
        self.g: list[int] = []
        super().__init__((0, self.f), (0, self.g))

    @staticmethod
    def _read(seen: list[int], lo: int, n: int | _Progression) -> int | _Row:
        if isinstance(n, int):
            seen.append(n)
            return 0
        if n.indices:
            seen += (n.indices[0], n.indices[-1])
        return _Row([0])


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
    # lhs by direct summation, adding the terms one by one as running sums
    # of the G row from 1 up to the last n (n rises by 1, as every range
    # does), on purpose: the telescoped rhs is what window_sum uses, so the
    # two sides must stay independent.
    GIB_PARTIAL_SUM = (  # sum_{i=1..n} G_i = G_{n+2} - G_2
        "gib_partial_sum", {"n": 1},
        lambda t, s, n: (
            _Row(itertools.islice(itertools.accumulate(t.G(_Progression(range(1, n.indices.stop)))),
                                  n.indices.start - 1, None)),
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


class IdentityReport(NamedTuple):
    """Outcome of checking one identity family over a parameter grid."""

    identity: Identity
    ranges: dict[str, tuple[int, int]]
    seeds: tuple[Seed, ...]
    checked: int
    failures: list[tuple[Seed, tuple[int, ...], int, int]]


#: The most grid points, seeds included, that one `verify_identity` call
#: checks, and that one `run_families` run checks over all its families; a
#: larger request or run is refused before any term is tabulated.
IDENTITY_POINT_CAP = 10**7

#: The most bits that one `verify_identity` call's term tables hold, F's
#: and one seed's G's together (`_table_bits`); a larger request is refused
#: before any term is tabulated.  At the cap (75 MB of terms), `identities
#: --id gib_partial_sum --hi 41574` peaks at 408 MB RSS (Python 3.11.7).
IDENTITY_TABLE_BIT_CAP = 6 * 10**8


def _table_bits(indices: list[int]) -> int:
    """About the bits of a table of the terms from min(indices) to max(indices):
    G_n has about log2(phi) |n| = 0.6942 |n| bits, so [0, n] holds 0.347 n^2."""
    def up_to(x: int) -> int:  # |0| + ... + |x|, or minus |x + 1| + ... + |-1| for x < 0
        return (x + 1) * abs(x) // 2
    return (up_to(max(indices)) - up_to(min(indices) - 1)) * 6942 // 10**4 if indices else 0


def check_identity_request(
    identity: Identity,
    ranges: dict[str, tuple[int, int]],
    seeds: Iterable[Seed] = SMALL_SEED_GRID,
) -> tuple[_IndexRecorder, tuple[Seed, ...], int]:
    """Check a `verify_identity` request without building any table.

    Returns the indices its sides read, the seeds it runs and its points
    (seeds times grid points), counted from the ranges' bounds alone, so
    a range of any length is sized at once.  A missing, empty or
    out-of-domain range, or a request over IDENTITY_POINT_CAP points or
    over IDENTITY_TABLE_BIT_CAP bits of term tables, is a ValueError.
    `run_families` calls this for every family first, so a run of several
    families is refused before any of them builds a table.
    """
    if not isinstance(identity, Identity):
        raise ValueError(f"unknown identity {identity!r}")
    for p, floor in identity.params.items():
        if p not in ranges:
            raise ValueError(f"identity {identity.value} needs a range for {p!r}")
        lo, hi = ranges[p]
        if lo > hi:
            raise ValueError(
                f"identity {identity.value} has an empty range for {p!r}: "
                f"[{_number_name(lo, 'value')}, {_number_name(hi, 'value')}]")
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
    points = len(seed_tuple) * math.prod(hi - lo + 1 for lo, hi in box)
    if points > IDENTITY_POINT_CAP:
        raise ValueError(f"identity {identity.value} asks for "
                         f"{_number_name(points, 'number of')} points, "
                         f"over the cap of {IDENTITY_POINT_CAP}")
    if (bits := _table_bits(reads.f) + _table_bits(reads.g)) > IDENTITY_TABLE_BIT_CAP:
        raise ValueError(f"identity {identity.value} asks for term tables of about "
                         f"{_number_name(bits, 'number of')} bits, over the cap of {IDENTITY_TABLE_BIT_CAP}")
    return reads, seed_tuple, points


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
    per seed.  A bad request is refused by `check_identity_request`
    before any table is built.

    The sides are evaluated one row at a time: each combination of the
    other parameters, with the last parameter's whole range as one
    progression.  Only a row whose two sides differ is walked point by
    point, so every failing point is still recorded as (seed, point, lhs,
    rhs), in seed order and then grid order.
    """
    reads, seed_tuple, points = check_identity_request(identity, ranges, seeds)
    f = _tabulate(FIBONACCI, reads.f)

    box = [ranges[p] for p in identity.params]
    *outer_axes, last_axis = [range(lo, hi + 1) for lo, hi in box]
    last = _Progression(last_axis)
    failures = []
    for seed in seed_tuple:
        table = _TermTable(f, _tabulate(seed, reads.g))
        for pt in itertools.product(*outer_axes):
            lhs, rhs = identity.sides(table, seed, *pt, last)
            if lhs != rhs:
                for n, a, b in zip(last, lhs, rhs, strict=True):
                    if a != b:
                        failures.append((seed, (*pt, n), a, b))
    return IdentityReport(identity, dict(ranges), seed_tuple, points, failures)


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


def run_families(families: Iterable[Identity], lo: int | None = None,
                 hi: int | None = None) -> list[IdentityReport]:
    """`verify_identity` of each family over its `default_identity_ranges`.
    Every request is checked first, and so is the run: its families'
    points, summed, must not be over IDENTITY_POINT_CAP.  So no family
    builds a table before the whole run has passed."""
    requests = [(i, default_identity_ranges(i, lo, hi)) for i in families]
    points = sum(check_identity_request(i, ranges)[2] for i, ranges in requests)
    if points > IDENTITY_POINT_CAP:
        raise ValueError(f"the {len(requests)} identity families ask for {points} points "
                         f"in all, over the cap of {IDENTITY_POINT_CAP}")
    return [verify_identity(i, ranges) for i, ranges in requests]
