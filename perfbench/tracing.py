"""Span tracing of gibonacci's modules, installed from outside the package.

Each module of the package is one layer.  ``Tracer.install`` wraps every
function a module defines and rebinds the wrapper under every name that
refers to it in any module of the package, including names another
module imported (``gcdsum._residue_period``, ``applications.divisors``,
...) and the package's own re-exports.  A call opens a span with a link
to its parent span; a direct recursive call (``_fib_pair``, ``jsonable``)
stays inside the span of its outermost call.

Spans are folded into per-layer totals as they close rather than kept,
since one scoreboard run opens hundreds of thousands of them.  A layer's
self time is the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


class SelfTimes:
    """Per-layer self time from closed spans (id, parent id, layer,
    duration) fed children-before-parents, which is the order in which
    spans close."""

    def __init__(self) -> None:
        self.by_layer: dict[str, float] = defaultdict(float)
        self._children: dict[int, float] = {}

    def add(self, sid: int, parent: int | None, layer: str, duration: float) -> None:
        self.by_layer[layer] += duration - self._children.pop(sid, 0.0)
        if parent is not None:
            self._children[parent] = self._children.get(parent, 0.0) + duration


class CacheMirror:
    """Replays the keys of ``_residue_period`` calls against a set, to count
    the period-cache lookups that find a key already seen since the last
    clear.  Mirrors the library's rule: modulus 1 and the zero pair are
    answered without a lookup."""

    def __init__(self) -> None:
        self.seen: set[tuple[int, int, int]] = set()
        self.lookups = 0
        self.hits = 0
        self.walk_steps = 0

    def record(self, a: int, b: int, m: int, period: int) -> None:
        if m == 1 or (a == 0 and b == 0):
            return
        self.lookups += 1
        if (a, b, m) in self.seen:
            self.hits += 1
        else:
            self.seen.add((a, b, m))
            self.walk_steps += period

    def clear(self) -> None:
        self.seen.clear()


class Tracer:
    def __init__(self) -> None:
        self.self_times = SelfTimes()
        self.cache = CacheMirror()
        self.counts: dict[str, float] = defaultdict(int)
        self.check_s: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str, Callable]] = []
        self._next_sid = 0
        self._last_exc: BaseException | None = None
        self._lcm_fn: Callable | None = None

    # -- installation -------------------------------------------------------

    def install(self, package: Any) -> Callable[[], None]:
        """Wrap the package's functions; returns the function that undoes it."""
        modules = {
            info.name: importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        }
        wrapped: dict[Callable, Callable] = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[obj] = self._wrap(layer, obj, _HOOKS.get(f"{layer}.{name}"))
        self._lcm_fn = getattr(modules.get("gcdsum"), "gcd_sum_lcm", None)
        patches = []
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    patches.append((module, name, obj))
                    setattr(module, name, wrapped[obj])

        def uninstall() -> None:
            for module, name, obj in patches:
                setattr(module, name, obj)

        return uninstall

    def _wrap(self, layer: str, fn: Callable, hook: Callable | None) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            if parent is not None and parent[2] is fn:
                return fn(*args, **kwargs)
            self._next_sid += 1
            sid = self._next_sid
            stack.append((sid, layer, fn))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                self._close(sid, parent, layer, end - start)
                if exc is not self._last_exc:  # count where it is raised, not where it passes
                    self._last_exc = exc
                    self.counts[f"{layer}.errors"] += 1
                raise
            end = perf_counter()
            stack.pop()
            self._close(sid, parent, layer, end - start)
            if hook is not None:
                hook(self, args, result, parent[1] if parent else None)
            return result

        return traced

    def _close(self, sid: int, parent: tuple | None, layer: str, duration: float) -> None:
        self.counts[f"{layer}.calls"] += 1
        self.self_times.add(sid, parent[0] if parent else None, layer, duration)

    def inside_lcm(self) -> bool:
        return any(fn is self._lcm_fn for _, _, fn in self._stack)

    # -- results ------------------------------------------------------------

    def metrics(self, layers: tuple[str, ...]) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in layers:
            for what in ("calls", "errors"):
                out[f"{layer}.{what}"] = self.counts.get(f"{layer}.{what}", 0)
            out[f"{layer}.self_s"] = self.self_times.by_layer.get(layer, 0.0)
        for key in ("sequences.max_index", "sequences.result_bits", "sequences.identity_points",
                    "gcdsum.lcm_moduli_tested", "pisano.max_modulus_bits", "factor.divisors_enumerated",
                    "factor.rho_calls", "cli.output_bytes"):
            out[key] = self.counts.get(key, 0)
        out["pisano.walk_steps"] = self.cache.walk_steps
        out["pisano.cache_lookups"] = self.cache.lookups
        out["pisano.cache_hits"] = self.cache.hits
        out["pisano.cache_hit_ratio"] = self.cache.hits / self.cache.lookups if self.cache.lookups else 0.0
        return out


# -- per-function counters, run after a successful call ------------------------


def _index_hook(index_of: Callable[[tuple], int]) -> Callable:
    def hook(t: Tracer, args: tuple, result: Any, parent_layer: str | None) -> None:
        index = abs(index_of(args))
        if index > t.counts["sequences.max_index"]:
            t.counts["sequences.max_index"] = index
        if parent_layer != "sequences":
            t.counts["sequences.result_bits"] += result.bit_length()

    return hook


def _residue_period(t: Tracer, args: tuple, result: Any, parent_layer: str | None) -> None:
    a, b, m = args
    t.cache.record(a, b, m, result)
    if m.bit_length() > t.counts["pisano.max_modulus_bits"]:
        t.counts["pisano.max_modulus_bits"] = m.bit_length()
    if t.inside_lcm():
        t.counts["gcdsum.lcm_moduli_tested"] += 1


def _clear_period_cache(t: Tracer, args: tuple, result: Any, parent_layer: str | None) -> None:
    t.cache.clear()


def _divisors(t: Tracer, args: tuple, result: Any, parent_layer: str | None) -> None:
    t.counts["factor.divisors_enumerated"] += len(result)


def _pollard_rho(t: Tracer, args: tuple, result: Any, parent_layer: str | None) -> None:
    t.counts["factor.rho_calls"] += 1


def _verify_identity(t: Tracer, args: tuple, result: Any, parent_layer: str | None) -> None:
    t.counts["sequences.identity_points"] += result.checked


def _check_results(t: Tracer, args: tuple, result: Any, parent_layer: str | None) -> None:
    for check in result if isinstance(result, list) else [result]:
        t.check_s[check.name] += check.elapsed


_HOOKS: dict[str, Callable] = {
    "sequences.fib": _index_hook(lambda a: a[0]),
    "sequences.lucas": _index_hook(lambda a: a[0]),
    "sequences.gib_term": _index_hook(lambda a: a[1]),
    "sequences.window_sum": _index_hook(lambda a: a[1] + a[2] + 1),
    "sequences.verify_identity": _verify_identity,
    "pisano._residue_period": _residue_period,
    "pisano.clear_period_cache": _clear_period_cache,
    "factor.divisors": _divisors,
    "factor._pollard_rho": _pollard_rho,
    "verify.run_all": _check_results,
    "verify.run_check": _check_results,
}
