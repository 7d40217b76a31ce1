"""Command-line front end.

Every subcommand maps to one library operation; output is deterministic
text or JSON.  All integers in JSON are decimal strings, since values
routinely exceed 64-bit range.  Exit codes: 0 success, 1 domain error,
2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import functools
import json
import re
import sys
import time
from typing import Any, Callable, Iterator

from . import applications, gcdsum, identities, pisano, sequences, verify
from .sequences import Seed, exact_decimal


def parse_seed(text: str) -> Seed:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"seed must be 'g0,g1', got {text!r}")
    try:
        return Seed(int(parts[0]), int(parts[1]))
    except ValueError:
        raise ValueError(f"seed entries must be integers, got {text!r}") from None


#: Bit length from which `decimal_str` splits instead of calling `str`.  On
#: CPython before 3.12, `str` takes time quadratic in the digit count.  In a
#: fresh process, where the split also pays for importing `decimal`, it
#: overtakes `str` between 2^16 and 2^17 bits (Python 3.11.7); at 2^17 bits
#: it takes 16 ms against 31 ms.
DECIMAL_STR_CUTOFF = 2**17
_DECIMAL_BASE_BITS = 2**12  # pieces this small convert with one Decimal(int)


def decimal_str(n: int) -> str:
    """``str(n)``, in subquadratic time for big n: every integer the CLI
    prints goes through here.

    Below DECIMAL_STR_CUTOFF bits it is ``str(n)``, under CPython's int/str
    digit limit, which `run` lifts.  From the cutoff up, |n| is split by bit shifts into a low
    and a high half, each half converted the same way, and the two joined
    as lo + hi * 2^w in `decimal`, whose libmpdec multiplies in
    subquadratic time (the method of CPython 3.12's ``_pylong``).  The
    arithmetic runs in ``exact_decimal``.  The sign is put on the finished
    digits.
    """
    if n.bit_length() < DECIMAL_STR_CUTOFF:
        return str(n)
    with exact_decimal() as Decimal:
        powers: dict[int, Any] = {}  # 2^w, memoised within one call

        def power(w: int) -> Any:
            if w not in powers:
                powers[w] = (Decimal(2) ** w if w <= _DECIMAL_BASE_BITS
                             else power(w >> 1) * power(w - (w >> 1)))
            return powers[w]

        def join(m: int, w: int) -> Any:  # m < 2^w
            if w <= _DECIMAL_BASE_BITS:
                return Decimal(m)
            half = w >> 1
            hi = m >> half
            return join(m - (hi << half), half) + join(hi, w - half) * power(half)

        digits = str(join(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


#: Chain index, the index of the largest term a command reads, from
#: which `term` (|n|), `sum` (n + k + 1), ``gcd-sum --method closed``,
#: `classify` and `lucas-odd` (k/2 at even k, j for `lucas-odd`) run the
#: chain on ``decimal.Decimal`` (see ``sequences.fib_pair``) and print with
#: ``str``, in place of ints and `decimal_str`.  In a fresh process, which
#: also pays about 2 ms for importing `decimal`, Decimal overtakes int for
#: `term` between n = 6*10^4 and 7*10^4 (int 9.2 against Decimal 9.8 ms,
#: then 11.2 against 10.7 ms), and for `gcd-sum` between k = 1.1*10^5 and
#: 1.4*10^5, chain indices 5.5*10^4 and 7*10^4 (10.0 against 11.0 ms, then
#: 10.2 against 9.2 ms; medians of 21 runs, Python 3.11.7, 2 vCPUs).  Since
#: `term`'s chain stops one doubling short of n, it crosses over between the
#: same two n, and at n = 10^6 it takes 31 ms against 149 ms in-process.
DECIMAL_CUTOFF = 7 * 10**4

#: Largest output, in bits, that `term`, `sum`, `lucas-odd` and even-k
#: `gcd-sum` and `classify` compute: G_n has about 0.6942 |n| bits (log2 of
#: the golden ratio is 0.69424), so the cap falls near a chain index of
#: 9.67*10^7.  Checked before any doubling chain starts.
OUTPUT_BIT_CAP = 2**26


def _check_output_bits(index: int) -> None:
    """Refuse, with a ValueError, a value read from terms at indices up to
    |index| when such a term has over OUTPUT_BIT_CAP bits."""
    bits = abs(index) * 6942 // 10000
    if bits > OUTPUT_BIT_CAP:
        size = f"about {bits}" if bits.bit_length() <= 64 else f"over 2^{bits.bit_length() - 1}"
        raise ValueError(f"output of {size} bits refused: over "
                         f"OUTPUT_BIT_CAP = {OUTPUT_BIT_CAP} bits")


@contextlib.contextmanager
def _zero(index: int, seed: Seed | None = None) -> Iterator[Any]:
    """The zero of a doubling chain at chain index |index|, refused first
    over OUTPUT_BIT_CAP: ``Decimal(0)``, inside ``exact_decimal``, from
    DECIMAL_CUTOFF up, and otherwise 0.  Opened by `term`, `sum`,
    `classify`, `lucas-odd` and ``gcd-sum --method closed``, which only
    print the values they compute; every other command computes on ints.

    Given the seed of a gcd command, Decimal also needs seed entries of b
    bits with 2 b^2 <= |index|: Euclid's loop on Decimal takes about 0.6
    divisions per seed bit (1.44 at most), each subquadratic in the index,
    while ``math.gcd`` on ints does not slow with the seed.  Random seeds
    crossed over near 140 bits at k = 10^5, 512 bits at 10^6 + 2 and 1,700
    bits at 10^7.
    """
    _check_output_bits(index)
    bits = 0 if seed is None else max(abs(seed.g0), abs(seed.g1)).bit_length()
    if abs(index) >= DECIMAL_CUTOFF and 2 * bits * bits <= abs(index):
        with exact_decimal() as Decimal:
            yield Decimal(0)
    else:
        yield 0


def jsonable(value: Any) -> Any:
    """Recursively convert results to JSON-safe data; ints and Decimals
    become strings of their digits."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return decimal_str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, Seed):
        return [decimal_str(value.g0), decimal_str(value.g1)]
    if hasattr(value, "_fields"):  # a result record, a NamedTuple
        return {f: jsonable(v) for f, v in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, enum.Enum):
        return value.value
    decimal = sys.modules.get("decimal")  # a Decimal exists only once it is loaded
    if decimal is not None and isinstance(value, decimal.Decimal):
        return str(value)  # exact: every Decimal here is an integer
    raise TypeError(f"cannot serialize {type(value)!r}")


def _print_error(message: object) -> None:
    """One stderr line for a refused or failed run.  A rejected value is
    quoted whole by argparse and by many library errors; a digit run of over
    50 digits says nothing there, so it is shown as its length."""
    message = re.sub(r"\d{51,}", lambda m: f"<{len(m[0])} digits>", str(message))
    print(f"error: {message}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems are domain errors
        _print_error(message)
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    parser = _Parser(prog="gibonacci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, handler: Callable[[argparse.Namespace], Outcome],
            seeded: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        if seeded:  # a command that does not read the seed rejects --seed
            p.add_argument("--seed", type=parse_seed, default=Seed(0, 1),
                           help="initial pair g0,g1 (default 0,1 = Fibonacci)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("term", "one sequence term", _term)
    p.add_argument("--n", type=int, required=True)

    p = add("sum", "sum of k consecutive terms starting at n", _sum)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("gcd-sum", "GCD of all sums of k consecutive terms", _gcd_sum)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("closed", "brute", "lcm", "all"), default="closed")
    p.add_argument("--bound", type=int, default=None,
                   help="lcm method: scan every modulus up to this cap")

    p = add("pisano", "period of the sequence modulo m", _pisano)
    p.add_argument("--m", type=int, required=True)

    p = add("classify", "predicted vs actual GCD value by k mod 12", _classify)
    p.add_argument("--k", type=int, required=True)

    p = add("parity-scan", "moduli in (2, m-max] with odd period", _parity_scan)
    p.add_argument("--m-max", type=int, required=True)

    p = add("max-modulus", "largest modulus with Fibonacci period k", _max_modulus, seeded=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")

    p = add("lucas-odd", "odd-indexed Lucas number from a seed's GCD", _lucas_odd)
    p.add_argument("--j", type=int, required=True)

    p = add("primes-check", "forbidden prime factors of the odd-k value", _primes_check)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, default=10**6)

    p = add("squares", "GCD of sums of k consecutive squares", _squares)
    p.add_argument("--k", type=int, required=True)

    p = add("identities", "run one or all identity families", _identities, seeded=False)
    p.add_argument("--id", choices=[i.value for i in identities.Identity])
    p.add_argument("--lo", type=int, default=None,
                   help="low end of every range (default 0; -10 for fib_shift_family)")
    p.add_argument("--hi", type=int, default=None,
                   help="high end of every range (default 200; 10 for fib_shift_family)")

    add("verify", "run the full verification suite", _verify, seeded=False)
    return parser


# A handler returns the JSON payload, a function building the text output
# (called in text mode only, so that a JSON run converts no value to
# decimal twice) and the exit code.
Outcome = tuple[dict[str, Any], Callable[[], str], int]


def _term(a: argparse.Namespace) -> Outcome:
    with _zero(a.n) as zero:
        # gib_term's own helper, not gib_term: perfbench's tracer calls
        # bit_length() on what gib_term returns, and a Decimal has none
        value = sequences._term(a.seed, a.n, zero)
    return {"seed": a.seed, "n": a.n, "value": value}, lambda: jsonable(value), 0


def _sum(a: argparse.Namespace) -> Outcome:
    # an empty or misplaced window reads index 0, so window_sum refuses it first
    with _zero(a.n + a.k + 1 if a.n >= 1 and a.k >= 1 else 0) as zero:
        value = sequences.window_sum(a.seed, a.n, a.k, zero=zero)
    return {"seed": a.seed, "n": a.n, "k": a.k, "value": value}, lambda: jsonable(value), 0


def _gcd_sum(a: argparse.Namespace) -> Outcome:
    if a.bound is not None and a.method not in ("lcm", "all"):
        raise ValueError(f"--bound is read by --method lcm or all only, not {a.method}")
    # every route reads the closed value, whose chain runs at k/2 for even k;
    # odd k reads small residues, and a k the library refuses reads no term.
    # Every route keeps the output cap; only --method closed takes the zero.
    index = a.k // 2 if a.k >= 1 and a.k % 2 == 0 else 0
    _check_output_bits(index)
    with (_zero(index, a.seed) if a.method == "closed"
          else contextlib.nullcontext(0)) as zero:
        methods = {  # brute runs first: it refuses a k over its cap before any chain
            "brute": lambda: gcdsum.gcd_sum_bruteforce(a.seed, a.k),
            "closed": lambda: gcdsum.gcd_sum(a.seed, a.k, zero=zero),
            "lcm": lambda: gcdsum.gcd_sum_lcm(a.seed, a.k, a.bound),
        }
        done = {name: run() for name, run in methods.items() if a.method in (name, "all")}
    results = [done[name] for name in ("closed", "brute", "lcm") if name in done]
    if a.method == "all":  # the routes must agree
        closed, brute, lcm = results
        c = closed.value
        if brute.value != c or (c % lcm.value if lcm.partial else lcm.value != c):
            wrong = brute if brute.value != c else lcm  # a partial lcm need only divide c
            raise AssertionError(
                f"gcd-sum routes disagree at k = {a.k}: closed_gcd gives "
                f"{sequences._number_name(c, 'value')}, {wrong.method.value} gives "
                f"{sequences._number_name(wrong.value, 'value')}"
                + (", a partial value that does not divide it" if wrong.partial else ""))
    return {"seed": a.seed, "k": a.k, "results": results}, lambda: "\n".join(
        f"{r.method.value}: {jsonable(r.value)}" + (" (partial)" if r.partial else "")
        for r in results
    ), 0


def _pisano(a: argparse.Namespace) -> Outcome:
    period = pisano.pisano_period(a.seed, a.m)
    return {"record": {"seed": a.seed, "modulus": a.m, "period": period}}, lambda: str(period), 0


def _classify(a: argparse.Namespace) -> Outcome:
    with _zero(a.k // 2 if a.k >= 1 and a.k % 2 == 0 else 0, a.seed) as zero:  # as gcd-sum
        c = gcdsum.classify(a.seed, a.k, zero=zero)
    pred = "table-inapplicable" if c.predicted is None else c.predicted
    payload = {"seed": c.seed, "k": c.k, "residue_mod_12": c.residue_mod_12,
               "case_row": c.case_row.value, "predicted": pred,
               "footnote": c.footnote.value, "actual": c.actual}
    return payload, lambda: (f"k={c.k} (mod 12: {c.residue_mod_12}) row={c.case_row.value} "
                             f"predicted={jsonable(pred)} actual={jsonable(c.actual)} "
                             f"footnote={c.footnote.value}"), 0


def _parity_scan(a: argparse.Namespace) -> Outcome:
    r = pisano.parity_scan(a.seed, a.m_max)
    return {"report": r}, lambda: " ".join(
        f"({m},{p})" for m, p in r.odd_period_moduli) or "none", 0


def _max_modulus(a: argparse.Namespace) -> Outcome:
    r = applications.max_modulus_for_period(a.k, exhaustive=a.exhaustive)
    return {"result": r}, lambda: (f"m={decimal_str(r.m_f)} form={r.predicted_form} "
                                   f"period={r.verified_period}"), 0


def _lucas_odd(a: argparse.Namespace) -> Outcome:
    # at k = 2j; a j the library refuses reads no term
    with _zero(a.j if a.j >= 1 and a.j % 2 else 0, a.seed) as zero:
        value = applications.lucas_from_gcd(a.seed, a.j, zero=zero)
    return {"seed": a.seed, "j": a.j, "value": value}, lambda: jsonable(value), 0


def _primes_check(a: argparse.Namespace) -> Outcome:
    r = applications.prime_restriction_check(a.seed, a.k, a.bound)
    return {"report": r}, lambda: (f"value={decimal_str(r.value)} "
                                   f"offending={list(r.offending_primes)} "
                                   f"cofactor={decimal_str(r.unfactored_cofactor)}"), 0


def _squares(a: argparse.Namespace) -> Outcome:
    r = applications.squares_gcd(a.seed, a.k)
    return {"record": r}, lambda: f"value={decimal_str(r.value)}" + (
        "" if r.predicted is None else f" predicted={decimal_str(r.predicted)}"), 0


def _identities(a: argparse.Namespace) -> Outcome:
    idents = [identities.Identity(a.id)] if a.id else list(identities.Identity)
    reports = identities.run_families(idents, a.lo, a.hi)
    payload = {"reports": [
        {"identity": r.identity.value, "ranges": r.ranges, "checked": r.checked,
         "failures": [(s, list(pt), lhs, rhs) for s, pt, lhs, rhs in r.failures[:10]]}
        for r in reports
    ]}
    return payload, lambda: "\n".join(
        f"{r.identity.value}: {'FAIL' if r.failures else 'ok'} ({r.checked} points)"
        for r in reports
    ), 2 if any(r.failures for r in reports) else 0


def _verify(a: argparse.Namespace) -> Outcome:
    start = time.perf_counter()
    results = verify.run_all()
    wall = time.perf_counter() - start  # the checks overlap, so their times sum to more
    passed = sum(r.passed for r in results)
    payload = {
        "checks": [{"criterion": r.criterion, "name": r.name, "passed": r.passed,
                    "detail": r.detail} for r in results],
        "passed": passed,
        "failed": len(results) - passed,
    }
    return payload, lambda: "\n".join([
        f"[{'PASS' if r.passed else 'FAIL'}] {r.criterion:2d} {r.name:28s} "
        f"{r.elapsed:6.2f}s  {r.detail}" for r in results
    ] + [f"{passed}/{len(results)} checks passed in {wall:.1f}s"]
    ), 0 if passed == len(results) else 2


def _bind_seed_values(argv: list[str]) -> list[str]:
    """``--seed -1,2`` as ``--seed=-1,2``: argparse takes a word starting
    with '-' that is not a plain negative number for an option name."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] == "--seed" and word[:1] == "-" and word[1:2].isdigit():
            out[-1] = f"--seed={word}"
        else:
            out.append(word)
    return out


def run(argv: list[str] | None = None) -> int:
    # The parser is built once, on the first call, not at import: building
    # its 13 subparsers takes about 2.6 ms, far more than most commands
    # (Python 3.11.7).  parse_args keeps no state between calls, and every
    # default it hands out (the Fibonacci seed, None) is immutable.
    # Parsed under CPython's int/str digit limit, so an oversized --n stays a
    # usage error; lifted for the command itself, whose exact values may run
    # to hundreds of thousands of digits, and restored for the caller.
    args = build_parser().parse_args(_bind_seed_values(sys.argv[1:] if argv is None else argv))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload, render, code = args.handler(args)
        print(json.dumps(jsonable(payload), sort_keys=True) if args.format == "json" else render())
    finally:
        sys.set_int_max_str_digits(limit)
    return code


def main() -> None:
    try:
        raise SystemExit(run())
    except ValueError as exc:
        _print_error(exc)
        raise SystemExit(1)
    except AssertionError as exc:  # an internal consistency check failed
        _print_error(f"verification failed: {exc}")
        raise SystemExit(2)


if __name__ == "__main__":
    main()
