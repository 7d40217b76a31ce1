"""gibonacci benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload bigk-closed --seed 1 --seconds 30 --trace 0

A single client runs the workload's seeded ops in a closed loop (the next
op starts when the last one returns) inside a fresh worker process; then
every answer is checked here against references that do not use
gibonacci.  Prints a readable report and, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1`` (a traced replay of a fixed op prefix, after an
untraced replay of the same ops that gives the tracing overhead).

Times are scaled to a reference machine speed (see speed.py); the raw
figures are printed too.  The library is imported from the checkout's
``src``.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
import sympy
from speed import SpeedLog
from workloads import PREFIX_OPS, WORKLOADS, cli_answer, op_index, op_list, planned_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 8  # before the worker runs, and as many after it
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import gibonacci, gibonacci.cli, gibonacci.verify; print(time.perf_counter() - t)"
)


def setup_seconds(src: Path, samples: int) -> list[tuple[float, float]]:
    """(scaled, raw) import times of gibonacci, its CLI and its scoreboard,
    each in a fresh interpreter (-I: no environment or user site applies)."""
    speed = SpeedLog()
    timed = []
    for _ in range(samples):
        speed.calibrate()
        start = perf_counter()
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(src)],
                              capture_output=True, text=True, timeout=60, check=True)
        timed.append((start, perf_counter(), float(done.stdout)))
    speed.calibrate()
    return [(raw * speed.factor(start, end), raw) for start, end, raw in timed]


def run_worker(src: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # -E: PYTHONINTMAXSTRDIGITS and friends must not change what is measured
    done = subprocess.run(
        [sys.executable, "-E", "-s", str(HERE / "worker.py"), str(src), workload,
         str(seed), str(seconds), "1" if trace else "0"],
        capture_output=True, timeout=3 * seconds + 60, check=True,
    )
    return pickle.loads(done.stdout)  # written by our own worker


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Verdict:
    """Outcome of checking every op of a run against the oracle."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # scaled seconds; +inf for failed or wrong ops
        self.raw: list[float] = []
        self.verified = 0
        self.known_failures = 0  # CLI output over the int->str limit
        self.unexpected: list[str] = []
        self.wrong: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.verified

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.unexpected


def judge(ops: list, records: list) -> Verdict:
    v = Verdict()
    for op, (scaled, raw, outcome) in zip(ops, records):
        ok = False
        if outcome[0] == "error":
            if oracle.exceeds_str_limit(op) and "integer string conversion" in outcome[1]:
                v.known_failures += 1
            else:
                v.unexpected.append(f"{op}: {outcome[1]}")
        elif outcome[0] == "cli" and outcome[1] != 0:
            v.unexpected.append(f"{op}: exit code {outcome[1]}")
        else:
            try:
                answer = outcome[1] if outcome[0] == "ok" else cli_answer(op, outcome[2])
                ok = oracle.check(op, answer)
            except (ValueError, KeyError, IndexError, TypeError) as exc:  # unparsable output
                answer = f"{type(exc).__name__}: {exc}"
            if not ok:
                v.wrong.append(f"{op}: got {str(answer)[:200]}")
        v.verified += ok
        v.latencies.append(scaled if ok else math.inf)
        v.raw.append(raw if ok else math.inf)
    return v


def input_properties(ops: list) -> list[str]:
    """Properties of the generated inputs that a cache or big-int change
    may depend on (the period-cache reuse share comes from the trace)."""
    def spread(values: list[int]) -> str:
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return (f"min {min(values)} q1 {q[0]:.0f} median {q[1]:.0f} q3 {q[2]:.0f} "
                f"max {max(values)} (n={len(values)})")

    lines = [f"CLI share: {sum(op.cli is not None for op in ops)}/{len(ops)} ops"]
    indices = [i for i in map(op_index, ops) if i is not None]
    if indices:
        lines.append(f"sequence index: {spread(indices)}")
    moduli = [op.args[0] for op in ops if op.kind in ("pisano_period", "parity_scan")]
    if moduli:
        lines.append(f"modulus (pisano m, parity-scan m_max): {spread(moduli)}")
    lcm = [op for op in ops if op.kind == "gcd_sum_lcm"]
    if lcm:
        counts = [int(sympy.divisor_count(oracle.closed_value(op.seed, op.args[0]))) for op in lcm]
        lines.append(f"lcm candidate divisor count: {spread(counts)}")
    return lines


def end_to_end(v: Verdict, report: dict,
               setup: list[tuple[float, float]]) -> tuple[dict, dict, list[str]]:
    """Metric values, a note on each, and lines for the unbounded extras."""
    busy = sum(r[0] for r in report["records"])
    raw_busy = sum(r[1] for r in report["records"])
    p50, beyond50 = percentile(v.latencies, 0.5)
    p90, beyond90 = percentile(v.latencies, 0.9)
    raw50 = percentile(v.raw, 0.5)[0]
    values = {
        "ops_per_s": v.verified / busy,
        "op_p50_ms": p50 * 1000 if math.isfinite(p50) else 1e12,  # more than half failed
        "success_rate": v.verified / v.attempted,
        "setup_s": statistics.median(s for s, _ in setup),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    notes = {
        "ops_per_s": f"{v.verified} verified ops / {busy:.2f} s of op time; raw {v.verified / raw_busy:.4g}",
        "op_p50_ms": f"n={v.attempted}, {beyond50} beyond, failed ops count as +inf; raw {raw50 * 1000:.4g}",
        "success_rate": f"{v.verified} verified / {v.attempted} attempted",
        "setup_s": f"median of {len(setup)} fresh interpreters; raw {statistics.median(r for _, r in setup):.4g}",
        "peak_rss_mb": f"worker VmHWM after warm-up and all {v.attempted} ops",
    }
    tail = f"{p90 * 1000:.6g} ms" if beyond90 >= 10 else "not reported: fewer than 10 samples beyond"
    extra = [
        f"  {'op_p90_ms':14s} {tail} (n={v.attempted}, {beyond90} beyond)",
        f"  {'error_rate':14s} {v.failed / v.attempted:.6g} ({v.failed} failed or wrong / {v.attempted} attempted)",
    ]
    return values, notes, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gibonacci" / "__init__.py").is_file():
        print(f"error: no gibonacci package under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.set_int_max_str_digits(0)  # the checker parses whatever the CLI printed

    setup = [] if args.trace else setup_seconds(src, SETUP_SAMPLES)
    try:
        report = run_worker(src, args.workload, args.seed, args.seconds, bool(args.trace))
    except subprocess.CalledProcessError as exc:
        print(exc.stderr.decode(errors="replace")[-2000:], file=sys.stderr)
        return 1
    if not args.trace:
        setup += setup_seconds(src, SETUP_SAMPLES)
    records = report["records"]
    planned = PREFIX_OPS[args.workload] if args.trace else planned_ops(args.workload, args.seconds)
    ops = op_list(args.workload, args.seed, "measure", planned)[:len(records)]
    v = judge(ops, records)
    if args.trace and [r[2] for r in report["plain"]] != [r[2] for r in records]:
        v.wrong.append("the traced and untraced replays gave different outcomes")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced replay' if args.trace else 'measured'}: attempted {v.attempted}  "
          f"verified {v.verified}  failed {v.failed} ({v.known_failures} over the "
          f"{oracle.STR_DIGITS_LIMIT}-digit int->str limit, {len(v.unexpected)} other "
          f"exceptions, {len(v.wrong)} wrong)")
    for line in (v.unexpected + v.wrong)[:10]:
        print(f"  FAIL {line}")
    for line in input_properties(ops):
        print(f"  input: {line}")

    if args.trace:
        layers = dict(report["layers"])
        plain_s = sum(r[0] for r in report["plain"])
        traced_s = sum(r[0] for r in records)
        layers["trace.overhead"] = (v.verified / plain_s) / (v.verified / traced_s) if v.verified else 0.0
        print(f"  tracing overhead {layers['trace.overhead']:.4g}x: untraced {plain_s:.3f} s, "
              f"traced {traced_s:.3f} s of op time for the same {v.attempted} ops")
        print(f"  input: period-cache keys already seen: {layers['pisano.cache_hits']} of "
              f"{layers['pisano.cache_lookups']} lookups")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        checks = {f"verify.check.{name}_s": t for name, t in report["check_s"].items()}
        for name, value in [*sorted(layers.items()), *checks.items()]:
            unit = units.get(name, "s" if name.endswith("_s") else "count")
            print(f"  {name:42s} {value:<12.6g} {unit}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        values, notes, extra = end_to_end(v, report, setup)
        for m in spec["end_to_end"]:
            print(f"  {m['name']:14s} {values[m['name']]:>12.6g} {m['unit']:6s} ({notes[m['name']]})")
        print("\n".join(extra))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    # a reader may take only finite numbers, and integers no wider than a double's mantissa
    unreadable = [name for name, m in metrics.items()
                  if not (isinstance(m["value"], (int, float)) and abs(m["value"]) < 2 ** 53)]
    if unreadable:
        print(f"error: metrics out of the readable range: {', '.join(unreadable)}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": v.correct, "attempted": v.attempted, "failed": v.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
