"""Runs one workload's ops in a fresh interpreter and reports what happened.

    python3 -E -s perfbench/worker.py <src dir> <workload> <seed> <seconds> <trace 0|1>

Imports only gibonacci and the standard-library workload modules (the
tracer too, with ``--trace 1``).  Peak RSS is the VmHWM of this process's
own address space, which starts afresh at exec; ``ru_maxrss`` would not
do, since Linux carries the parent's high-water mark over into it.
Answers are reduced to canonical form (big integers to digests) outside
the timed region; checking them is the parent's job.  Writes one pickle
to stdout and nothing else.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import pickle
import sys
from time import perf_counter
from typing import TYPE_CHECKING, Any

from speed import SpeedLog
from workloads import PREFIX_OPS, call_library, cli_argv, library_answer, op_list, planned_ops

if TYPE_CHECKING:
    from tracing import Tracer

#: Warm-up ops, from a stream seeded apart from the measured one.
WARMUP_OPS = {"bigk-closed": 12, "period-route": 12, "verify-scoreboard": 1}


def run_op(g: Any, op: Any) -> tuple[float, float, tuple]:
    """Run one op; returns (start, end, outcome).  The outcome is ("ok",
    canonical answer) for a library call, ("cli", exit code, stdout) for a
    CLI call, or ("error", message)."""
    out = io.StringIO()
    start = perf_counter()
    try:
        if op.cli is None:
            result = call_library(g, op)
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                result = g.cli.run(cli_argv(op))
    except (Exception, SystemExit) as exc:  # a failed op is a result, not a crash
        return start, perf_counter(), ("error", f"{type(exc).__name__}: {exc}"[:300])
    end = perf_counter()
    if op.cli is None:
        return start, end, ("ok", library_answer(op, result))
    return start, end, ("cli", result, out.getvalue())


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_ops(g: Any, workload: str, ops: Any, deadline: float | None = None,
            tracer: Tracer | None = None) -> list[tuple[float, float, tuple]]:
    """Run ops back to back (closed loop, one client) until they run out or
    the deadline passes, timing the calibration chunk in between; returns
    [(scaled seconds, raw seconds, outcome)] per op."""
    speed = SpeedLog()
    timed = []
    for op in ops:
        if deadline is not None and perf_counter() >= deadline:
            break
        speed.calibrate()
        if workload == "verify-scoreboard":
            g.pisano.clear_period_cache()  # every `gibonacci verify` process starts cold
        start, end, outcome = run_op(g, op)
        if tracer is not None and outcome[0] == "cli":
            tracer.counts["cli.output_bytes"] += len(outcome[2].encode())
        timed.append((start, end, outcome))
    speed.calibrate()
    return [((end - start) * speed.factor(start, end), end - start, outcome)
            for start, end, outcome in timed]


def main(src: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, src)
    g = importlib.import_module("gibonacci")
    for name in ("cli", "pisano"):
        importlib.import_module(f"gibonacci.{name}")
    run_ops(g, workload, op_list(workload, seed, "warmup", WARMUP_OPS[workload]))
    g.pisano.clear_period_cache()

    if not trace:
        # cut a run that takes over three times its planned length
        deadline = perf_counter() + 3 * seconds
        ops = op_list(workload, seed, "measure", planned_ops(workload, seconds))
        records = run_ops(g, workload, ops, deadline)
        return {"records": records, "peak_rss_mb": peak_rss_mb()}

    import pkgutil

    from tracing import Tracer

    ops = op_list(workload, seed, "measure", PREFIX_OPS[workload])
    plain = run_ops(g, workload, ops)
    tracer = Tracer()
    uninstall = tracer.install(g)
    try:
        g.pisano.clear_period_cache()
        records = run_ops(g, workload, ops, tracer=tracer)
    finally:
        uninstall()
    # self times in the same scaled seconds as the op times
    scale = sum(r[0] for r in records) / sum(r[1] for r in records)
    layers = tracer.metrics(tuple(sorted(info.name for info in pkgutil.iter_modules(g.__path__))))
    for name in layers:
        if name.endswith("_s"):
            layers[name] *= scale
    return {
        "records": records, "plain": plain, "layers": layers,
        "check_s": {name: t * scale for name, t in tracer.check_s.items()},
    }


if __name__ == "__main__":
    src_dir, name, seed_arg, seconds_arg, trace_arg = sys.argv[1:6]
    report = main(src_dir, name, int(seed_arg), float(seconds_arg), trace_arg == "1")
    sys.stdout.buffer.write(pickle.dumps(report))
