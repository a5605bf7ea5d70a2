"""Per-layer tracing of flagcalc from outside the package.

Every public function of each layer module is replaced, in every flagcalc
module namespace that refers to it, by a wrapper that counts calls and
measures self time: the wrapper's duration minus the part covered by nested
wrapped calls.  Time spent in private helpers is charged to the public
function that called them.  Aggregates are kept in memory; nothing is
written until the benchmark ends.
"""
from __future__ import annotations

import sys
from time import perf_counter

LAYERS = ("dynkin", "homogeneous", "tags", "classifier", "drum", "cli")

# Functions whose arguments are remembered to measure how much work repeats,
# and whose results are counted as accepted when not None.
REPEAT_TRACKED = ("homogeneous.is_two_bundle_pair", "drum.weyl_dim", "classifier.homogeneous_tags")
ACCEPT_TRACKED = ("homogeneous.is_two_bundle_pair",)
# lru_cache-backed functions whose hit ratio is reported.  A function that is
# missing or has no cache reads as 0 hits and 0 misses.
CACHE_TRACKED = ("dynkin.positive_roots", "dynkin.automorphisms")


class FunctionStats:
    __slots__ = ("calls", "self_s", "repeats", "accepts", "seen")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.repeats = 0
        self.accepts = 0
        self.seen: set = set()


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield name, obj


class Tracer:
    """Wraps the layer functions of one imported copy of flagcalc."""

    def __init__(self, api) -> None:
        self.stats: dict[str, FunctionStats] = {}
        self._originals: dict[str, object] = {}
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self._cache_base: dict[str, tuple[int, int]] = {}
        for layer in LAYERS:
            module = getattr(api, layer)
            for name, fn in _public_functions(module):
                key = f"{layer}.{name}"
                self.stats[key] = FunctionStats()
                self._originals[key] = fn
                self._wrappers[id(fn)] = (fn, self._wrap(key, fn))

    def install(self) -> None:
        """Point every flagcalc module's reference to a layer function at its wrapper."""
        for modname, module in list(sys.modules.items()):
            if modname != "flagcalc" and not modname.startswith("flagcalc."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = self._wrappers.get(id(value), (None, None))
                if original is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = perf_counter
        repeat = name in REPEAT_TRACKED
        accept = name in ACCEPT_TRACKED

        def wrapper(*args, **kwargs):
            if repeat:
                key = (args, tuple(sorted(kwargs.items())))
                if key in stats.seen:
                    stats.repeats += 1
                else:
                    stats.seen.add(key)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
            if accept and result is not None:
                stats.accepts += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cache_counts(self, name: str) -> tuple[int, int]:
        cache_info = getattr(self._originals.get(name), "cache_info", None)
        if cache_info is None:
            return 0, 0
        info = cache_info()
        return info.hits, info.misses

    def reset(self) -> None:
        """Start a new batch: zero every counter and remember cache statistics."""
        for stats in self.stats.values():
            stats.reset()
        self._cache_base = {name: self._cache_counts(name) for name in CACHE_TRACKED}

    def layer_self(self) -> dict[str, float]:
        """Self time so far in this batch, per layer and for cli.build_parser."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, stats in self.stats.items():
            totals[name.split(".")[0]] += stats.self_s
        parser = self.stats.get("cli.build_parser")
        totals["cli.build_parser"] = parser.self_s if parser else 0.0
        return totals

    def collect(self) -> dict[str, float]:
        """Raw per-batch counters, keyed by function or layer name.

        Counters of a function the package no longer has are absent; readers
        take them as 0.
        """
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for name, stats in self.stats.items():
            layer = name.split(".")[0]
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.self_s"] = stats.self_s
            out[f"{layer}.calls"] += stats.calls
            out[f"{layer}.self_s"] += stats.self_s
            if name in REPEAT_TRACKED:
                out[f"{name}.repeats"] = stats.repeats
            if name in ACCEPT_TRACKED:
                out[f"{name}.accepts"] = stats.accepts
        for name in CACHE_TRACKED:
            hits, misses = self._cache_counts(name)
            base_hits, base_misses = self._cache_base[name]
            out[f"{name}.hits"] = hits - base_hits
            out[f"{name}.misses"] = misses - base_misses
        return out
