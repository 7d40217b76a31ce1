"""Check that other Python interpreters give the CLI's outputs byte for byte.

    python scripts/crosscheck.py /usr/bin/python3.10 /usr/bin/python3.13

Runs every check below in subprocesses with PYTHONPATH=src, on the running
interpreter and on each one named, and compares:

* ``tests/test_readme_cli.py``'s transcript of the README's CLI examples
  with the recorded ``tests/readme_cli.txt``;
* the sha256 of ``verify --format json`` with the running interpreter's,
  and its stderr, under ``-W default``, with nothing: a warning there (such
  as Python 3.12's on forking a process with other threads) is a difference;
* the stdout and exit code of ``term`` and ``sum``, in text and JSON, with
  the running interpreter's.  They run on three grid seeds at indices
  on both sides of ``cli.DECIMAL_CUTOFF``, where the value changes from an
  int to a ``decimal.Decimal``.  ``term`` reads each index with both signs,
  and ``sum`` a window whose telescoped form G_{n+k+1} - G_{n+1} reads it;
* the exit code, number of stderr lines and number of stderr lines over
  200 bytes of every row of ``tests/adversarial_runs.py``, with the row's
  exit code, one line for a refusal, none otherwise, and none over 200
  bytes, as ``tests/test_cli.py`` asserts.

Prints one line per interpreter and check, and exits 1 on any difference.
Needs nothing beyond the standard library, on any interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
from adversarial_runs import ADVERSARIAL_RUNS  # noqa: E402  (needs the paths above)

SEEDS = ("0,1", "1,4", "-3,7")
INDICES = (7 * 10**4 - 1, 7 * 10**4, 10**5 + 1)  # cli.DECIMAL_CUTOFF = 7*10^4


def value_commands() -> list[list[str]]:
    """The ``term`` and ``sum`` argument lists, each in both formats."""
    commands = []
    for seed in SEEDS:
        for top in INDICES:
            n = top // 2  # the window G_n .. G_{top-2} telescopes to G_top - G_{n+1}
            for argv in (["term", "--n", str(top)], ["term", "--n", str(-top)],
                         ["sum", "--n", str(n), "--k", str(top - n - 1)]):
                for fmt in ("text", "json"):
                    commands.append([*argv, "--seed", seed, "--format", fmt])
    return commands


def run(python: str, args: list[str]) -> subprocess.CompletedProcess:
    """``python args``, run in the repository root, its output captured."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([python, *args], cwd=ROOT, env=env, capture_output=True, check=False)


def exit_and_stdout(done: subprocess.CompletedProcess) -> bytes:
    """``[exit N]`` and a newline before the run's stdout."""
    return f"[exit {done.returncode}]\n".encode() + done.stdout


def exit_and_stderr_lines(code: int, lines: int, long_lines: int = 0) -> bytes:
    return f"[exit {code}] {lines} stderr lines, {long_lines} over 200 bytes".encode()


def outputs(python: str) -> dict[str, list[bytes]]:
    """Check name -> what is compared, on one interpreter."""
    verify = run(python, ["-W", "default", "-m", "gibonacci.cli", "verify", "--format", "json"])
    adversarial = [run(python, ["-m", "gibonacci.cli", *argv]) for argv, _ in ADVERSARIAL_RUNS]
    return {
        "readme transcript": [exit_and_stdout(run(python, ["tests/test_readme_cli.py"]))],
        "verify json sha256": [hashlib.sha256(exit_and_stdout(verify)).hexdigest().encode(),
                               verify.stderr],
        "term and sum": [exit_and_stdout(run(python, ["-m", "gibonacci.cli", *argv]))
                         for argv in value_commands()],
        "adversarial runs": [exit_and_stderr_lines(done.returncode, done.stderr.count(b"\n"),
                                                   sum(len(line) > 200 for line
                                                       in done.stderr.splitlines(keepends=True)))
                             for done in adversarial],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("python", nargs="+", help="interpreter to compare with this one")
    results = {python: outputs(python) for python in [sys.executable, *parser.parse_args().python]}
    want = {**results[sys.executable],
            "verify json sha256": [results[sys.executable]["verify json sha256"][0], b""],
            "readme transcript": [b"[exit 0]\n" + (ROOT / "tests" / "readme_cli.txt").read_bytes()],
            "adversarial runs": [exit_and_stderr_lines(code, 1 if code else 0)
                                 for _, code in ADVERSARIAL_RUNS]}
    failed = False
    for python, got in results.items():
        version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                                 stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
        for name, values in got.items():
            differ = sum(a != b for a, b in zip(values, want[name]))
            failed |= differ > 0
            print(f"{version:8s} {name:20s} {len(values) - differ} of {len(values)} same", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
