"""Time each CLI command at its largest admitted input, as one whole process.

    python scripts/captimes.py captimes.json

Runs every row below once, in order, as ``python -m gibonacci.cli ...``
with PYTHONPATH=src on the running interpreter, and writes the argv, exit
code and wall-clock seconds of each run to the JSON path given.  An
argument of more than 20 characters is written as ``<N chars>``.  The
slowest of the first seven rows is "the slowest capped command" that a
new budget is held to; ``primes-check``, the eighth, is slower than
those.  The next seven rows take the other commands to their largest
admitted input, ``verify`` to its one run and ``identities`` without
``--id`` to the most points a run of every family may hold.  After a
refused row, the last two rows, 4300-digit seed entries with a large k,
have no budget yet and run for a minute or more each.  Needs nothing
beyond the standard library.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]
from gibonacci.sequences import fib  # noqa: E402  (needs the path above)

#: Coprime seed entries of 4300 digits, the most CPython reads as an int.
BIG_SEED = f"{10**4299 + 7},{3 * 10**4299 + 1}"
#: The seed (F_{m+3}, F_m), m = 20573, has 4300-digit entries and |d| =
#: L_{2m+3}: G_1 - G_0 phi is a unit times phi^(2m+3) - 1, whose norm is
#: -L_{2m+3}.  So at k = 2m+3, odd, its value is the whole 28,568-bit |d|,
#: and trial division up to the cap divides a value of that size.
LUCAS_SEED = f"{fib(20576)},{fib(20573)}"
#: The largest prime below 2^42, just under (B + 1)^2 for B =
#: TRIAL_DIVISION_BOUND: as the one odd prime of a 512-bit m, it makes the
#: division of m run all the way to B before the cofactor left is prime.
P42 = 2**42 - 11

ROWS = [
    ["term", "--n", "96670793"],  # the last index under OUTPUT_BIT_CAP
    ["gcd-sum", "--k", "193341586"],  # chain index k/2, the same
    ["classify", "--k", "193341586"],
    ["gcd-sum", "--method", "lcm", "--k", "2700000"],  # LCM_ROUTE_INDEX_CAP
    ["max-modulus", "--exhaustive", "--k", "2700000"],
    ["squares", "--k", "1048576"],  # BRUTE_FORCE_INDEX_CAP
    ["gcd-sum", "--method", "brute", "--k", "1048576"],
    ["primes-check", "--seed", LUCAS_SEED, "--k", "41149", "--bound", "2097152"],  # the bound cap
    ["pisano", "--m", str(P42 << 470)],  # MODULUS_BIT_CAP, B-smooth but for one prime near 2^42
    ["parity-scan", "--seed", BIG_SEED, "--m-max", "131072"],  # SCAN_MODULUS_CAP
    ["lucas-odd", "--j", "96670793"],  # the last odd j under OUTPUT_BIT_CAP
    ["sum", "--n", "48335396", "--k", "48335396"],  # n + k + 1, the same
    ["verify"],
    ["identities", "--id", "gib_addition", "--hi", "632"],  # 9,985,600 points, IDENTITY_POINT_CAP
    ["identities", "--hi", "615"],  # every family: 9,973,706 points in all, IDENTITY_POINT_CAP
    ["gcd-sum", "--method", "lcm", "--bound", "10", "--k", "193341584"],  # refused
    ["gcd-sum", "--seed", BIG_SEED, "--k", "9" * 4300],  # odd k, chain mod 2|d|
    ["gcd-sum", "--seed", BIG_SEED, "--k", "193341584"],  # even k, on ints
]


def shown(argv: list[str]) -> list[str]:
    return [a if len(a) <= 20 else f"<{len(a)} chars>" for a in argv]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = []
    for argv in ROWS:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "gibonacci.cli", *argv], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
        seconds = round(time.perf_counter() - start, 3)
        runs.append({"argv": shown(argv), "exit": done.returncode, "seconds": seconds})
        print(f"{seconds:8.3f} s  exit {done.returncode}  {' '.join(shown(argv))}", flush=True)
    Path(sys.argv[1]).write_text(json.dumps(
        {"python": platform.python_version(), "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
