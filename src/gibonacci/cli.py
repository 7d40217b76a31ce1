"""Command-line front end.

Every subcommand maps to one library operation; output is deterministic
text or JSON.  All integers in JSON are decimal strings, since values
routinely exceed 64-bit range.  Exit codes: 0 success, 1 domain error,
2 verification failure.
"""

from __future__ import annotations

import argparse
import enum
import json
import re
import sys
from typing import Any, Callable

from . import applications, gcdsum, pisano, sequences, verify
from .sequences import Seed


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
    arithmetic runs in a local context wide enough to be exact, with
    Inexact trapped so that any rounding raises instead of printing wrong
    digits; the caller's context is left as it was.  The sign is put on the
    finished digits.
    """
    if n.bit_length() < DECIMAL_STR_CUTOFF:
        return str(n)
    import decimal  # here, not at the top: it takes 1.5-2.2 ms, and every CLI start imports cli

    powers: dict[int, decimal.Decimal] = {}  # 2^w, memoised within one call

    def power(w: int) -> decimal.Decimal:
        if w not in powers:
            powers[w] = (decimal.Decimal(2) ** w if w <= _DECIMAL_BASE_BITS
                         else power(w >> 1) * power(w - (w >> 1)))
        return powers[w]

    def join(m: int, w: int) -> decimal.Decimal:  # m < 2^w
        if w <= _DECIMAL_BASE_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return join(m - (hi << half), half) + join(hi, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        digits = str(join(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def jsonable(value: Any) -> Any:
    """Recursively convert results to JSON-safe data; ints become strings."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return decimal_str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, Seed):
        return [decimal_str(value.g0), decimal_str(value.g1)]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(value, "__dataclass_fields__"):
        return {f: jsonable(getattr(value, f)) for f in value.__dataclass_fields__}
    raise TypeError(f"cannot serialize {type(value)!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems are domain errors
        self.print_usage(sys.stderr)
        # argparse quotes a rejected value whole; a digit run that long says nothing
        message = re.sub(r"\d{51,}", lambda m: f"<{len(m[0])} digits>", message)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gibonacci", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, seeded: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        if seeded:  # a command that does not read the seed rejects --seed
            p.add_argument("--seed", type=parse_seed, default=Seed(0, 1),
                           help="initial pair g0,g1 (default 0,1 = Fibonacci)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("term", "one sequence term")
    p.add_argument("--n", type=int, required=True)

    p = add("sum", "sum of k consecutive terms starting at n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("gcd-sum", "GCD of all sums of k consecutive terms")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("closed", "brute", "lcm", "all"), default="closed")
    p.add_argument("--bound", type=int, default=None,
                   help="lcm method: scan every modulus up to this cap")

    p = add("pisano", "period of the sequence modulo m")
    p.add_argument("--m", type=int, required=True)

    p = add("classify", "predicted vs actual GCD value by k mod 12")
    p.add_argument("--k", type=int, required=True)

    p = add("parity-scan", "moduli in (2, m-max] with odd period")
    p.add_argument("--m-max", type=int, required=True)

    p = add("max-modulus", "largest modulus with Fibonacci period k", seeded=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")

    p = add("lucas-odd", "odd-indexed Lucas number from a seed's GCD")
    p.add_argument("--j", type=int, required=True)

    p = add("primes-check", "forbidden prime factors of the odd-k value")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, default=10**6)

    p = add("squares", "GCD of sums of k consecutive squares")
    p.add_argument("--k", type=int, required=True)

    p = add("identities", "run one or all identity families", seeded=False)
    p.add_argument("--id", choices=[i.value for i in sequences.Identity])
    p.add_argument("--lo", type=int, default=None,
                   help="low end of every range (default 0; -10 for fib_shift_family)")
    p.add_argument("--hi", type=int, default=None,
                   help="high end of every range (default 200; 10 for fib_shift_family)")

    add("verify", "run the full verification suite", seeded=False)
    return parser


# A handler returns the JSON payload, a function building the text output
# (called in text mode only, so that a JSON run converts no value to
# decimal twice) and the exit code.
Outcome = tuple[dict[str, Any], Callable[[], str], int]


def _term(a: argparse.Namespace) -> Outcome:
    value = sequences.gib_term(a.seed, a.n)
    return {"seed": a.seed, "n": a.n, "value": value}, lambda: decimal_str(value), 0


def _sum(a: argparse.Namespace) -> Outcome:
    value = sequences.window_sum(a.seed, a.n, a.k)
    return {"seed": a.seed, "n": a.n, "k": a.k, "value": value}, lambda: decimal_str(value), 0


def _gcd_sum(a: argparse.Namespace) -> Outcome:
    if a.bound is not None and a.method not in ("lcm", "all"):
        raise ValueError(f"--bound is read by --method lcm or all only, not {a.method}")
    methods = {
        "closed": lambda: gcdsum.gcd_sum(a.seed, a.k),
        "brute": lambda: gcdsum.gcd_sum_bruteforce(a.seed, a.k),
        "lcm": lambda: gcdsum.gcd_sum_lcm(a.seed, a.k, a.bound),
    }
    chosen = ("closed", "brute", "lcm") if a.method == "all" else (a.method,)
    results = [methods[name]() for name in chosen]
    return {"seed": a.seed, "k": a.k, "results": results}, lambda: "\n".join(
        f"{r.method.value}: {decimal_str(r.value)}" + (" (partial)" if r.partial else "")
        for r in results
    ), 0


def _pisano(a: argparse.Namespace) -> Outcome:
    period = pisano.pisano_period(a.seed, a.m)
    return {"record": {"seed": a.seed, "modulus": a.m, "period": period}}, lambda: str(period), 0


def _classify(a: argparse.Namespace) -> Outcome:
    c = gcdsum.classify(a.seed, a.k)
    pred = c.predicted if c.table_applies else "table-inapplicable"
    payload = {"seed": c.seed, "k": c.k, "residue_mod_12": c.residue_mod_12,
               "case_row": c.case_row.value, "predicted": pred,
               "footnote": c.footnote.value, "actual": c.actual}
    return payload, lambda: (f"k={c.k} (mod 12: {c.residue_mod_12}) row={c.case_row.value} "
                             f"predicted={jsonable(pred)} actual={decimal_str(c.actual)} "
                             f"footnote={c.footnote.value}"), 0


def _parity_scan(a: argparse.Namespace) -> Outcome:
    r = pisano.parity_scan(a.seed, a.m_max)
    return {"report": r}, lambda: "none" if r.empty else " ".join(
        f"({m},{p})" for m, p in r.odd_period_moduli), 0


def _max_modulus(a: argparse.Namespace) -> Outcome:
    r = applications.max_modulus_for_period(a.k, exhaustive=a.exhaustive)
    return {"result": r}, lambda: (f"m={decimal_str(r.m_f)} form={r.predicted_form} "
                                   f"period={r.verified_period}"), 0


def _lucas_odd(a: argparse.Namespace) -> Outcome:
    value = applications.lucas_from_gcd(a.seed, a.j)
    return {"seed": a.seed, "j": a.j, "value": value}, lambda: decimal_str(value), 0


def _primes_check(a: argparse.Namespace) -> Outcome:
    r = applications.prime_restriction_check(a.seed, a.k, a.bound)
    return {"report": r}, lambda: (f"value={decimal_str(r.value)} "
                                   f"offending={list(r.offending_primes)} "
                                   f"cofactor={decimal_str(r.unfactored_cofactor)}"), 0


def _squares(a: argparse.Namespace) -> Outcome:
    r = applications.squares_gcd(a.seed, a.k)

    def render() -> str:
        conj = "" if r.conjectured is None else (
            f" conjectured={decimal_str(r.conjectured)} match={r.matches_conjecture}")
        return f"empirical={decimal_str(r.empirical_value)} windows={r.windows_used}{conj}"
    return {"record": r}, render, 0


def _identities(a: argparse.Namespace) -> Outcome:
    idents = [sequences.Identity(a.id)] if a.id else list(sequences.Identity)
    reports = [sequences.verify_identity(i, sequences.default_identity_ranges(i, a.lo, a.hi))
               for i in idents]
    payload = {"reports": [
        {"identity": r.identity.value, "ranges": r.ranges, "checked": r.checked,
         "failures": [(s, list(pt), lhs, rhs) for s, pt, lhs, rhs in r.failures[:10]]}
        for r in reports
    ]}
    return payload, lambda: "\n".join(
        f"{r.identity.value}: {'ok' if r.ok else 'FAIL'} ({r.checked} points)" for r in reports
    ), 0 if all(r.ok for r in reports) else 2


def _verify(a: argparse.Namespace) -> Outcome:
    results = verify.run_all()
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
    ] + [f"{passed}/{len(results)} checks passed in {sum(r.elapsed for r in results):.1f}s"]
    ), 0 if passed == len(results) else 2


COMMANDS: dict[str, Callable[[argparse.Namespace], Outcome]] = {
    "term": _term, "sum": _sum, "gcd-sum": _gcd_sum, "pisano": _pisano,
    "classify": _classify, "parity-scan": _parity_scan, "max-modulus": _max_modulus,
    "lucas-odd": _lucas_odd, "primes-check": _primes_check, "squares": _squares,
    "identities": _identities, "verify": _verify,
}


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
    # Parsed under CPython's int/str digit limit, so an oversized --n stays a
    # usage error; lifted for the command itself, whose exact values may run
    # to hundreds of thousands of digits, and restored for the caller.
    args = build_parser().parse_args(_bind_seed_values(sys.argv[1:] if argv is None else argv))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload, render, code = COMMANDS[args.command](args)
        print(json.dumps(jsonable(payload), sort_keys=True) if args.format == "json" else render())
    finally:
        sys.set_int_max_str_digits(limit)
    return code


def main() -> None:
    try:
        raise SystemExit(run())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    except AssertionError as exc:  # an internal consistency check failed
        print(f"error: verification failed: {exc}", file=sys.stderr)
        raise SystemExit(2)


if __name__ == "__main__":
    main()
