"""Per-layer tracing by wrapping the layers' public functions.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer`
replaces the functions and methods named in :data:`LAYERS` with timing
wrappers while a traced pass runs and puts every original back in
:meth:`LayerTracer.remove`; :meth:`LayerTracer.assert_clean` proves no
wrapper is left before untraced timing resumes.

Each wrapper records a span: its wall time and its caller span.  Spans
are aggregated in memory per (phase, layer) as *self time* -- a span's
duration minus the time of its child spans -- plus a call count.  A
layer called from inside itself (``CWormEngine.run_events`` falling back
to ``WormEngine.run_events``, say) is one span, not two.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Any, Callable, Iterable, Optional

_MARK = "__perfbench_original__"

#: layer -> what it wraps: ``(module, function)`` pairs, patched in every
#: module that imported the function by name, and ``(module, class,
#: method)`` triples, patched on the class.  A missing module, class or
#: function is skipped, so a refactor that removes one leaves its layer
#: recording nothing instead of breaking the traced run.
LAYERS: dict[str, list[tuple[str, ...]]] = {
    "core.saturation_rate": [("repro.core.model", "AnalyticalModel", "saturation_rate")],
    "core.evaluate": [("repro.core.model", "AnalyticalModel", "evaluate")],
    "core.build_flows": [("repro.core.flows", "build_flows")],
    "core.solve_service_times": [("repro.core.service", "solve_service_times")],
    "core.latency": [
        ("repro.core.unicast", "average_unicast_latency"),
        ("repro.core.multicast", "average_multicast_latency"),
    ],
    # topology, routing and ChannelGraph construction
    "routing.network_build": [
        ("repro.topology.quarc", "QuarcTopology", "__init__"),
        ("repro.topology.mesh", "MeshTopology", "__init__"),
        ("repro.routing.base", "RoutingAlgorithm", "__init__"),
        ("repro.routing.quarc", "QuarcRouting", "__init__"),
        ("repro.routing.mesh", "MeshRouting", "__init__"),
        ("repro.core.channel_graph", "ChannelGraph", "__init__"),
    ],
    "workloads.destsets": [
        ("repro.workloads.destsets", "random_multicast_sets"),
        ("repro.workloads.destsets", "localized_multicast_sets"),
    ],
    "orchestration.task_key": [("repro.orchestration.tasks", "SimTask", "task_key")],
    "orchestration.execute_task": [("repro.orchestration.tasks", "execute_task")],
    "orchestration.driver": [
        ("repro.experiments.compare", "run_grid"),
        ("repro.traffic.scenarios", "run_scenario"),
    ],
    "cache.get": [("repro.experiments.io", "ResultCache", "get")],
    "cache.put": [("repro.experiments.io", "ResultCache", "put")],
    "sim.run": [("repro.sim.network", "NocSimulator", "run")],
    # the arrival stream's fire, which also spawns the arriving worms
    "sim.arrivals": [("repro.sim.arrivals", "PoissonArrivalStream", "fire")],
    # engine inject, including native ballistic completion
    "sim.inject": [
        ("repro.sim.wormengine", "WormEngine", "inject"),
        ("repro.sim.wormengine", "CWormEngine", "inject"),
    ],
    # engine run_events: one call per dispatch window
    "sim.dispatch": [
        ("repro.sim.wormengine", "WormEngine", "run_events"),
        ("repro.sim.wormengine", "CWormEngine", "run_events"),
    ],
    "sim.stats": [("repro.sim.measurement", "LatencyStats", "add")],
}

#: layer -> name of its call counter in the reported metrics
CALLS_NAME = {"sim.dispatch": "windows"}

#: counters filled by the wrappers' result hooks, not by span counts
COUNTERS = ("cache.hits", "sim.events", "sim.c_runs", "sim.c_bounces", "sim.py_fallback_runs")

#: the per-layer time metrics without a call count
NO_CALLS = ("core.solve_service_times", "core.latency", "orchestration.driver")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric ``(name, unit)``, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.s", "s"))
        if layer not in NO_CALLS:
            out.append((f"{layer}.{CALLS_NAME.get(layer, 'calls')}", "count"))
    out.extend((name, "count") for name in COUNTERS)
    out.append(("trace.overhead_pct", "%"))
    return out


def _resolve(dotted: str):
    """The named module, or None once a refactor has removed it (its
    layers then simply record nothing)."""
    try:
        __import__(dotted)
    except ModuleNotFoundError:
        return None
    return sys.modules[dotted]


class LayerTracer:
    """Installs, aggregates and removes the layer wrappers."""

    def __init__(self, extra_modules: Iterable[Any] = ()) -> None:
        self._extra_modules = list(extra_modules)
        self._undo: list[tuple[Any, str, Any]] = []
        self._stack: list[list] = []
        #: phase -> layer -> [self seconds, calls]
        self.layers: dict[str, dict[str, list[float]]] = {}
        #: phase -> counter -> value
        self.counters: dict[str, dict[str, int]] = {}
        #: phase -> wall seconds of the phase's root span
        self.walls: dict[str, float] = {}
        # calls outside any phase land in these throwaway dicts
        self._current: dict[str, list[float]] = {layer: [0.0, 0] for layer in LAYERS}
        self._counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self._engine = None

    # ------------------------------------------------------------------ #
    def phase(self, name: str) -> "_Phase":
        """Context manager: the root span of one traced phase."""
        return _Phase(self, name)

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec = tracer._current[name]
                rec[0] += dt - frame[1]
                rec[1] += 1
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, out)
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    # result hooks ------------------------------------------------------ #
    def _after_get(self, args, out) -> None:
        if out is not None:
            self._counts["cache.hits"] += 1

    def _after_dispatch(self, args, out) -> None:
        self._engine = args[0]

    def _after_run(self, args, out) -> None:
        counts = self._counts
        counts["sim.events"] += out.events
        engine, self._engine = self._engine, None
        for attr in ("c_runs", "c_bounces", "py_fallback_runs"):
            counts[f"sim.{attr}"] += getattr(engine, attr, 0)

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        if self._undo:
            raise RuntimeError("layer wrappers are already installed")
        hooks = {
            "cache.get": self._after_get,
            "sim.dispatch": self._after_dispatch,
            "sim.run": self._after_run,
        }
        try:
            for layer, targets in LAYERS.items():
                after = hooks.get(layer)
                for mod_name, *path in targets:
                    owner = _resolve(mod_name)
                    if len(path) == 1:
                        fn = getattr(owner, path[0], None)
                        if fn is not None:
                            self._patch_everywhere(fn, self._wrap(layer, fn, after))
                        continue
                    cls = getattr(owner, path[0], None)
                    if cls is not None and path[1] in vars(cls):
                        method = vars(cls)[path[1]]
                        self._patch_attr(cls, path[1], self._wrap(layer, method, after))
        except BaseException:
            self.remove()
            raise

    def _patch_attr(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, fn: Callable, wrapper: Callable) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module (and the
        benchmark's own) that holds it under some name."""
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch_attr(mod, attr, wrapper)

    def _modules(self) -> list[Any]:
        mods = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ]
        return mods + self._extra_modules

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def assert_clean(self) -> None:
        """Raise if any wrapper is still reachable from a module or a
        wrapped class."""
        for mod in self._modules():
            for attr, value in vars(mod).items():
                if hasattr(value, _MARK):
                    raise RuntimeError(f"layer wrapper left on {mod.__name__}.{attr}")
                if inspect.isclass(value):
                    for cattr, cvalue in vars(value).items():
                        if hasattr(cvalue, _MARK):
                            raise RuntimeError(
                                f"layer wrapper left on {value.__qualname__}.{cattr}"
                            )

    # ------------------------------------------------------------------ #
    def totals(self, passes: int) -> dict[str, float]:
        """Per-layer metrics summed over phases, per traced pass."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            s = sum(p[layer][0] for p in self.layers.values())
            calls = sum(p[layer][1] for p in self.layers.values())
            out[f"{layer}.s"] = s / passes
            if layer not in NO_CALLS:
                out[f"{layer}.{CALLS_NAME.get(layer, 'calls')}"] = calls / passes
        for name in COUNTERS:
            out[name] = sum(c[name] for c in self.counters.values()) / passes
        return out

    def table(self, title: str) -> str:
        """The "where time goes" table: self time per layer per phase."""
        lines = [f"== where time goes: {title} (self time, traced) =="]
        for phase, layers in self.layers.items():
            wall = self.walls[phase]
            lines.append(f"-- phase {phase}: {wall:.3f} s wall --")
            lines.append(f"  {'layer':28s} {'self s':>10s} {'share':>7s} {'calls':>10s}")
            rows = sorted(layers.items(), key=lambda kv: -kv[1][0])
            attributed = 0.0
            for layer, (s, calls) in rows:
                if calls == 0:
                    continue
                attributed += s
                lines.append(
                    f"  {layer:28s} {s:10.4f} {100 * s / wall:6.1f}% {int(calls):10d}"
                )
            other = wall - attributed
            lines.append(f"  {'(benchmark + unwrapped)':28s} {other:10.4f} "
                         f"{100 * other / wall:6.1f}%")
            core = sum(s for layer, (s, _) in layers.items() if layer.startswith("core."))
            lines.append(f"  core.* share of phase {phase}: {100 * core / wall:.1f}%")
            lines.append("  counters: " + ", ".join(
                f"{name} {value}" for name, value in self.counters[phase].items()
            ))
        return "\n".join(lines)


class _Phase:
    def __init__(self, tracer: LayerTracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Phase":
        t = self.tracer
        t._current = t.layers.setdefault(self.name, {layer: [0.0, 0] for layer in LAYERS})
        t._counts = t.counters.setdefault(self.name, {name: 0 for name in COUNTERS})
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.walls[self.name] = t.walls.get(self.name, 0.0) + time.perf_counter() - self._t0

