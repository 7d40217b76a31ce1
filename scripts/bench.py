"""Per-kernel timings of gibonacci, best of 3 runs, written to a JSON file.

    python scripts/bench.py --label after --out BENCH_8.json

Imports the gibonacci under ``src/`` next to this script, so a copy of the
script placed in another checkout times that checkout.  Each case clears
the period cache before every run (a fresh process starts cold) and keeps
the best wall time from ``time.perf_counter``.  The results go under
``runs[label]`` of the output file; other labels already in the file are
kept, so before and after numbers can sit side by side.  Timings are for
reading, not for gating: nothing in the test suite reads this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gibonacci import (  # noqa: E402
    FIBONACCI,
    Seed,
    cli,
    gcd_sum,
    gcd_sum_lcm,
    max_modulus_for_period,
    parity_scan,
    pisano_period,
    verify,
)
from gibonacci.pisano import clear_period_cache  # noqa: E402
from gibonacci.sequences import Identity, default_identity_ranges, verify_identity  # noqa: E402

REPEAT = 3  # runs per case; the best is kept


def verify_cli_json() -> None:
    """`gibonacci verify --format json` in-process, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["verify", "--format", "json"])


def cases() -> dict[str, tuple[dict[str, Any], Callable[[], Any]]]:
    """Name -> (params, zero-argument call).  Inputs are built here, outside
    the timed call."""
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
        "gcd_sum_fib_1e6_plus_1": (  # odd k: the value is 1 or 2 and the gcd dominates
            {"seed": [0, 1], "k": 10**6 + 1}, lambda: gcd_sum(FIBONACCI, 10**6 + 1)),
        "gcd_sum_fib_4e6": (
            {"seed": [0, 1], "k": 4 * 10**6}, lambda: gcd_sum(FIBONACCI, 4 * 10**6)),
        "parity_scan_1_4_3000": (
            {"seed": [1, 4], "m_max": 3000}, lambda: parity_scan(Seed(1, 4), 3000)),
        "pisano_fib_1e6": (
            {"seed": [0, 1], "m": 10**6}, lambda: pisano_period(FIBONACCI, 10**6)),
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


def best_ms(call: Callable[[], Any]) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        clear_period_cache()
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 3)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key under runs, e.g. before or after")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to merge into")
    args = parser.parse_args()

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["python"] = platform.python_version()
    doc["machine"] = {"platform": platform.platform(), "cpus": os.cpu_count()}
    doc["repeat"] = REPEAT
    results = {}
    for name, (params, call) in cases().items():
        results[name] = {"ms": best_ms(call), "params": params}
        print(f"{name:28s} {results[name]['ms']:12.3f} ms", flush=True)
    doc.setdefault("runs", {})[args.label] = results
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
