"""Per-kernel timings of gibonacci against another checkout, written to a JSON file.

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    python scripts/bench.py --against /tmp/parent --out BENCH_10.json

Times every case on the gibonacci under DIR/src (``runs.before``) and on the
one under ``src/`` next to this script (``runs.after``).  Each run of a case
is one fresh process that imports one of the two and times one call of the
case with ``time.perf_counter``; the runs alternate between the two sides,
and which side goes first alternates too, so a drift in machine speed falls
on both.  Each side keeps its best of REPEAT runs.  The cases are this
script's own, so both sides run the same calls.  Timings are for reading,
not for gating: nothing in the test suite reads this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

SRC = Path(__file__).resolve().parent.parent / "src"
REPEAT = 3  # runs per case and side; the best is kept

# A run: put the side's src first on the path, load this script without
# running main, and print the time of one call of the named case.
CHILD = ("import runpy, sys; sys.path.insert(0, sys.argv[1]); "
         "print(runpy.run_path(sys.argv[2])['time_once'](sys.argv[3]))")


def verify_cli_json() -> None:
    """`gibonacci verify --format json` in-process, its stdout discarded."""
    from gibonacci import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["verify", "--format", "json"])


def cases() -> dict[str, tuple[dict[str, Any], Callable[[], Any]]]:
    """Name -> (params, zero-argument call), on the gibonacci found first on
    the path.  Inputs are built here, outside the timed call."""
    from gibonacci import (
        FIBONACCI,
        Seed,
        gcd_sum,
        gcd_sum_lcm,
        max_modulus_for_period,
        parity_scan,
        pisano_period,
        verify,
    )
    from gibonacci.sequences import Identity, default_identity_ranges, verify_identity

    addition = default_identity_ranges(Identity.GIB_ADDITION)
    return {
        "gcd_sum_lcm_fib_360": (
            {"seed": [0, 1], "k": 360}, lambda: gcd_sum_lcm(FIBONACCI, 360)),
        "gcd_sum_lcm_fib_840": (
            {"seed": [0, 1], "k": 840}, lambda: gcd_sum_lcm(FIBONACCI, 840)),
        "gcd_sum_lcm_1_4_240": (
            {"seed": [1, 4], "k": 240}, lambda: gcd_sum_lcm(Seed(1, 4), 240)),
        "max_modulus_exhaustive_300": (
            {"k": 300, "exhaustive": True}, lambda: max_modulus_for_period(300, exhaustive=True)),
        "gcd_sum_fib_1e6": (
            {"seed": [0, 1], "k": 10**6}, lambda: gcd_sum(FIBONACCI, 10**6)),
        "gcd_sum_fib_1e6_plus_1": (  # odd k: the value divides 2|d| = 2
            {"seed": [0, 1], "k": 10**6 + 1}, lambda: gcd_sum(FIBONACCI, 10**6 + 1)),
        "gcd_sum_1_4_4e6_plus_1": (  # odd k, |d| = 11: the value divides 22
            {"seed": [1, 4], "k": 4 * 10**6 + 1}, lambda: gcd_sum(Seed(1, 4), 4 * 10**6 + 1)),
        "gcd_sum_fib_4e6": (
            {"seed": [0, 1], "k": 4 * 10**6}, lambda: gcd_sum(FIBONACCI, 4 * 10**6)),
        "parity_scan_1_4_3000": (
            {"seed": [1, 4], "m_max": 3000}, lambda: parity_scan(Seed(1, 4), 3000)),
        "pisano_fib_1e6": (
            {"seed": [0, 1], "m": 10**6}, lambda: pisano_period(FIBONACCI, 10**6)),
        "pisano_fib_1e7_plus_19": (
            {"seed": [0, 1], "m": 10**7 + 19}, lambda: pisano_period(FIBONACCI, 10**7 + 19)),
        "pisano_fib_1e8_plus_7": (
            {"seed": [0, 1], "m": 10**8 + 7}, lambda: pisano_period(FIBONACCI, 10**8 + 7)),
        "identity_suite": (
            {"call": "verify.check_identity_suite()"}, verify.check_identity_suite),
        "gib_addition": (
            {"ranges": addition, "seeds": 25},
            lambda: verify_identity(Identity.GIB_ADDITION, addition)),
        "verify_run_all": (
            {"call": "verify.run_all()", "checks": len(verify.CHECKS)}, verify.run_all),
        "verify_cli_json": (
            {"argv": ["verify", "--format", "json"]}, verify_cli_json),
    }


def time_once(name: str) -> float:
    """Milliseconds for one call of the named case, in this process."""
    call = cases()[name][1]
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1e3


def run_in(src: Path, name: str) -> float:
    """One run of the named case in a fresh process importing gibonacci from src."""
    out = subprocess.run([sys.executable, "-c", CHILD, str(src), __file__, name],
                         stdout=subprocess.PIPE, text=True, check=True)
    return float(out.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="checkout whose src/ is timed as runs.before")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args()
    sides = {"before": args.against.resolve() / "src", "after": SRC}
    if not (sides["before"] / "gibonacci").is_dir():
        parser.error(f"no gibonacci package under {sides['before']}")

    sys.path.insert(0, str(SRC))
    runs: dict[str, dict[str, Any]] = {"before": {}, "after": {}}
    for name, (params, _) in cases().items():
        best = {"before": float("inf"), "after": float("inf")}
        for i in range(REPEAT):
            for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
                best[side] = min(best[side], run_in(sides[side], name))
        for side in runs:
            runs[side][name] = {"ms": round(best[side], 3), "params": params}
        print(f"{name:28s} {best['before']:12.3f} -> {best['after']:12.3f} ms", flush=True)
    doc = {
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "repeat": REPEAT,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
