"""Per-layer tracing of in-process ``rieszgreedy.cli.main`` runs.

The tracer replaces, from outside the package, the module attributes each
layer boundary calls through, and records one span per call: boundary,
start, end, parent span and whether it raised.  Spans are kept in flat
arrays and reduced once at the end; a layer's self time is its spans'
durations minus the time covered by their child spans.  Counts that need
the call's arguments or a cache's state (grid points, cache misses, rows
written) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "limits", "binary", "arith", "special", "asymptotics", "energy")

#: (module, attribute, layer, role).  The module is the caller: patching
#: ``cli.greedy_energy`` times the energy layer as the CLI reaches it.
BOUNDARIES = (
    ("cli", "_write_csv", "cli", "csv"),
    ("cli", "_write_manifest", "cli", "manifest"),
    ("cli", "scan_extremum", "limits", "scan"),
    ("limits", "batch_eta_values", "limits", "batch"),
    ("cli", "greedy_energy", "energy", "greedy"),
    ("asymptotics", "greedy_energy", "energy", "greedy"),
    ("energy", "_roots_energy_cached", "energy", "roots"),
    ("energy", "decompose", "binary", "decompose"),
    ("asymptotics", "binary_weights", "binary", "weights"),
    ("asymptotics", "energy_form", "arith", "form"),
    ("asymptotics", "log_kernel_form", "arith", "form"),
    ("asymptotics", "leja_offset", "arith", "form"),
    ("asymptotics", "zeta", "special", "special"),
    ("asymptotics", "sinc_power_series", "special", "special"),
    ("asymptotics", "arclength_energy", "special", "special"),
    ("cli", "expansion_energy", "asymptotics", "sequence"),
    ("cli", "t_sequence", "asymptotics", "sequence"),
)
_MAIN = len(BOUNDARIES)  # boundary id of the root span around cli.main

#: Per-layer metrics with their units, in the order they are reported.
UNITS = {
    "cli.write_s": "s", "cli.rows": "count", "cli.bytes": "bytes",
    "cli.rows_per_s": "rows/s", "cli.self_s": "s",
    "limits.calls": "count", "limits.self_s": "s", "limits.points": "count",
    "limits.points_per_s": "1/s",
    "binary.calls": "count", "binary.self_s": "s", "binary.weights_hit_ratio": "ratio",
    "arith.calls": "count", "arith.self_s": "s",
    "special.calls": "count", "special.self_s": "s",
    "asymptotics.calls": "count", "asymptotics.self_s": "s",
    "energy.greedy_calls": "count", "energy.greedy_self_s": "s",
    "energy.roots_misses": "count", "energy.roots_hit_ratio": "ratio",
    "energy.roots_sines": "count", "energy.roots_self_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.errors": "count" for layer in LAYERS},
}


def _modules() -> dict:
    return {name: importlib.import_module(f"rieszgreedy.{name}")
            for name in ("cli", "limits", "energy", "asymptotics", "binary",
                         "arith", "special")}


def clear_caches() -> None:
    """Empty every ``functools`` cache in the package, so each command
    starts as cold as in a fresh process."""
    for module in _modules().values():
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if clear is not None:
                clear()


def run_commands(argvs, main=None) -> tuple[float, list]:
    """Run ``cli.main`` (or ``main``) once per argv, each on cold caches;
    return the wall time and, per command, its exit code or the exception
    it escaped with."""
    main = main or _modules()["cli"].main
    outcomes = []
    wall = 0.0
    for argv in argvs:
        clear_caches()
        t0 = time.perf_counter()
        try:
            outcomes.append(main(list(argv)))
        except (Exception, SystemExit) as exc:  # a crash is a failed command
            outcomes.append(exc)
        wall += time.perf_counter() - t0
    return wall, outcomes


def wrapper_cost(role: str, calls: int = 10000,
                 repeats: int = 5) -> tuple[float, float]:
    """Seconds the ``role`` wrapper adds to one call, measured on a cached
    no-op: the part inside the span it records, and the part outside it,
    which lands in the caller's self time.  Medians over ``repeats``."""
    probe = Tracer()

    @functools.lru_cache(maxsize=None)
    def noop(*args):
        return None

    args = {"roots": (2, 0.5), "weights": (2,)}.get(role, ())
    wrapped = probe._wrap(0, role, noop)
    inside, outside = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(*args)
        base = time.perf_counter() - t0
        first = len(probe.start)
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped(*args)
        total = time.perf_counter() - t0
        spans = np.array(probe.end[first:]) - np.array(probe.start[first:])
        inside.append(float(spans.mean()) - base / calls)
        outside.append((total - base) / calls - inside[-1])
    return statistics.median(inside), statistics.median(outside)


class Tracer:
    """Installs span-recording wrappers on the boundaries in
    :data:`BOUNDARIES` and reduces the spans to per-layer metrics."""

    def __init__(self):
        self.boundary = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self._restore = []
        self.csv_paths: list[Path] = []
        self.points = 0
        self.weights_calls = self.weights_hits = 0
        self.roots_calls = self.roots_misses = self.roots_sines = 0
        # wrapper cost per boundary id (inside the span, outside it)
        self.cost_inside = np.zeros(len(BOUNDARIES) + 1)
        self.cost_outside = np.zeros(len(BOUNDARIES) + 1)

    # -- recording -------------------------------------------------------

    def _wrap(self, bid: int, role: str, fn):
        # span bookkeeping is inlined: every call on a boundary pays it
        clock, stack = time.perf_counter, self._stack
        boundary, parent, start = self.boundary.append, self.parent.append, self.start
        end, raised = self.end, self.raised

        def plain(*args, **kwargs):
            idx = len(start)
            boundary(bid)
            parent(stack[-1])
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        if role == "roots":
            info = fn.cache_info

            def roots(n, s):
                misses = info().misses
                value = plain(n, s)
                self.roots_calls += 1
                if info().misses != misses:
                    self.roots_misses += 1
                    self.roots_sines += n // 2
                return value
            return roots
        if role == "weights":
            info = fn.cache_info

            def weights(n):
                hits = info().hits
                value = plain(n)
                self.weights_calls += 1
                self.weights_hits += info().hits - hits
                return value
            return weights
        if role == "batch":
            def batch(ns, *args, **kwargs):
                self.points += len(ns)
                return plain(ns, *args, **kwargs)
            return batch
        if role == "csv":
            def write_csv(path, *args, **kwargs):
                self.csv_paths.append(Path(path))
                return plain(path, *args, **kwargs)
            return write_csv
        return plain

    def install(self) -> None:
        modules = _modules()
        for bid, (module, attr, _, role) in enumerate(BOUNDARIES):
            mod = modules[module]
            original = getattr(mod, attr)
            wrapper = self._wrap(bid, role, original)
            if hasattr(original, "cache_clear"):
                wrapper.cache_clear = original.cache_clear
            self._restore.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def run(self, argvs) -> tuple[float, list]:
        """Run the commands traced, each inside a root ``cli.main`` span."""
        costs = {role: wrapper_cost(role) for role in ("plain", "roots", "weights")}
        for bid, (_, _, _, role) in enumerate(BOUNDARIES):
            inside, outside = costs.get(role, costs["plain"])
            self.cost_inside[bid], self.cost_outside[bid] = inside, outside
        traced_main = self._wrap(_MAIN, "main", _modules()["cli"].main)
        self.install()
        try:
            return run_commands(argvs, traced_main)
        finally:
            self.uninstall()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per span: duration, self time (duration minus the time child
        spans cover) and self time less the wrappers' own cost."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        bid = np.frombuffer(self.boundary, dtype=np.int32)
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        cost = self.cost_inside[bid]
        np.add.at(cost, parent[has_parent], self.cost_outside[bid[has_parent]])
        raw = dur - child
        return dur, raw, np.maximum(raw - cost, 0.0)

    def metrics(self, overhead_s: float) -> dict[str, float]:
        dur, _, self_t = self.self_times()
        bid = np.frombuffer(self.boundary, dtype=np.int32)
        raised = np.frombuffer(self.raised, dtype=np.int8)
        layer_of = [b[2] for b in BOUNDARIES] + ["cli"]
        role_of = [b[3] for b in BOUNDARIES] + ["main"]

        def mask(pred) -> np.ndarray:
            ids = [i for i in range(len(layer_of)) if pred(layer_of[i], role_of[i])]
            return np.isin(bid, ids)

        def layer(name: str) -> np.ndarray:
            return mask(lambda lay, _: lay == name)

        def role(name: str) -> np.ndarray:
            return mask(lambda _, r: r == name)

        rows = sum(p.read_bytes().count(b"\n") - 1 for p in self.csv_paths)
        nbytes = sum(p.stat().st_size for p in self.csv_paths)
        write_s = float(dur[role("csv") | role("manifest")].sum())
        limits_self = float(self_t[layer("limits")].sum())
        out = {
            "cli.write_s": write_s,
            "cli.rows": rows,
            "cli.bytes": nbytes,
            "cli.rows_per_s": rows / write_s if write_s > 0 else 0.0,
            "cli.self_s": float(self_t[layer("cli")].sum()),
            "limits.calls": int(role("scan").sum()),
            "limits.self_s": limits_self,
            "limits.points": self.points,
            "limits.points_per_s": self.points / limits_self if limits_self > 0 else 0.0,
            "binary.calls": int(layer("binary").sum()),
            "binary.self_s": float(self_t[layer("binary")].sum()),
            "binary.weights_hit_ratio": (self.weights_hits / self.weights_calls
                                         if self.weights_calls else 0.0),
            "arith.calls": int(layer("arith").sum()),
            "arith.self_s": float(self_t[layer("arith")].sum()),
            "special.calls": int(layer("special").sum()),
            "special.self_s": float(self_t[layer("special")].sum()),
            "asymptotics.calls": int(layer("asymptotics").sum()),
            "asymptotics.self_s": float(self_t[layer("asymptotics")].sum()),
            "energy.greedy_calls": int(role("greedy").sum()),
            "energy.greedy_self_s": float(self_t[role("greedy")].sum()),
            "energy.roots_misses": self.roots_misses,
            "energy.roots_hit_ratio": ((self.roots_calls - self.roots_misses)
                                       / self.roots_calls if self.roots_calls else 0.0),
            "energy.roots_sines": self.roots_sines,
            "energy.roots_self_s": float(self_t[role("roots")].sum()),
            "trace.overhead_s": overhead_s,
        }
        for name in LAYERS:
            out[f"{name}.errors"] = int(raised[layer(name)].sum())
        return out

    def covered_s(self) -> float:
        """Total self time over all layers: the root spans' duration."""
        return float(self.self_times()[1].sum())

    def net_s(self) -> float:
        """Total self time over all layers, less the wrappers' cost."""
        return float(self.self_times()[2].sum())
