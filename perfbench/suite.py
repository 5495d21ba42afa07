"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in :meth:`setup`
(repeatable, so set-up time can be measured several times in one
process) and runs one measured pass in :meth:`run_pass`, which returns a
:class:`PassResult`: phase wall times, one sample per simulator run
(unit key, load class, events, host seconds), op/failure counts, gate
outcomes and the simulated outputs whose digest must repeat exactly.
Every phase and simulation unit runs the same inputs in every pass, so
``run.py`` can time each by its fastest sample.  Everything runs in this
process through the serial executor.

* ``paper-grid`` -- the path ``python -m repro grid`` takes, on a fixed
  panel subset, one panel at a time: a cold pass into an empty cache
  directory, then a warm pass against it, with re-executions of the cold
  pass's tasks after each panel.
* ``sim-steady`` -- direct ``NocSimulator.run`` calls at light load
  (N=64) and under contention (N=128 at 0.7 of the model's saturation
  rate, pinned below so the model never runs), eight short runs each.
* ``scenario-suite`` -- ``run_scenario`` over the ten registry scenarios
  with default samples and no result cache, timed per scenario, each
  followed by re-executions of its simulation tasks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import math
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import repro.experiments.compare as grid_driver
import repro.orchestration.tasks as tasks_mod
import repro.traffic.scenarios as scenario_driver
from repro.core.flows import TrafficSpec
from repro.experiments.config import paper_grid
from repro.experiments.io import ResultCache
from repro.experiments.runner import budget_sim_config, sweep_tasks
from repro.orchestration.executor import SerialExecutor
from repro.routing.quarc import QuarcRouting
from repro.sim.network import NocSimulator, SimConfig
from repro.topology.quarc import QuarcTopology
from repro.workloads.destsets import random_multicast_sets

#: ``python -m repro grid`` defaults: 4 points up to 0.8 of saturation,
#: 400 unicast samples per point, per-point derived seeds
GRID_POINTS = 4
GRID_SAMPLES = 400
#: the fixed panel subset: the N=64 panel of both figures
GRID_PANELS = ("fig6-N64-M32-a10", "fig7-N64-M32-a10")
TINY_GRID_PANELS = ("fig6-N16-M32-a05", "fig7-N16-M32-a05")
#: after each panel of the cold and of the warm pass, untraced passes
#: re-execute every simulation task completed so far this many times, so
#: each task's fastest time comes from samples spread over the pass
GRID_SIM_REPEATS = 5

#: occupancy-model saturation rate of the fig6 N=128 panel (M=16,
#: alpha=3%, groups of 16) at workload seed 2009; pinned so that
#: sim-steady never runs the model
FIG6_N128_SATURATION = 0.0017518997192382812
#: the contended phase's load as a fraction of that rate.  At 0.8, four
#: of ten traffic seeds crossed the simulator's in-flight saturation
#: cutoff over the phase's long sample target; at 0.7 none of 130 did
CONTENDED_FRACTION = 0.7

#: the registry scenarios, in a fixed order
SCENARIO_NAMES = (
    "cbr-sync", "cbr-uniform", "deadlock-onset", "hotspot-onoff", "hotspot-poisson",
    "link-kill", "mesh-onoff", "onoff-bursty", "onoff-pareto", "poisson-uniform",
)
TINY_SCENARIO_NAMES = ("poisson-uniform", "link-kill")
#: untraced suite passes re-execute each scenario's simulation tasks
#: this many times right after the scenario
SCENARIO_SIM_REPEATS = 1

#: a sweep point below this fraction of the model's saturation rate
#: counts as light load, at or above it as contended
LIGHT_BELOW = 0.5
#: a run under the model's own assumptions (Poisson timing, no faults)
#: must not saturate up to this fraction of the model's saturation rate,
#: the grid's top load point.  Other scenario points may: CBR bursts and
#: the deadlock-onset sweep are studies of exactly that divergence
MUST_NOT_SATURATE_UP_TO = 0.8


@dataclass
class PassResult:
    """One measured pass of a workload."""

    walls: dict[str, float] = field(default_factory=dict)  #: phase -> wall s
    #: simulated work: one (unit key, light load?, events, host seconds)
    #: sample per simulator run.  A unit (a phase or a task) runs the same
    #: inputs every time, so its samples differ in host time only
    sims: list[tuple[str, bool, int, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    gates: dict[str, bool] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)  #: digest input
    kernels: dict[str, set] = field(default_factory=dict)  #: phase -> kernels
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    def add_sim(self, key: str, light: bool, events: int, seconds: float) -> None:
        self.sims.append((key, light, events, seconds))

    def digest_text(self) -> str:
        return _dumps(self.outputs)


def _dumps(outputs) -> str:
    """Canonical text of simulated outputs (NaN-safe, so equal outputs
    give equal text)."""
    return json.dumps(outputs, sort_keys=True, default=str)


class _Recording:
    """A result store that records every completed task and delegates
    lookups to ``inner`` (None: every lookup misses, as with no cache)."""

    def __init__(self, inner: Optional[ResultCache]) -> None:
        self.inner = inner
        self.results: list[tuple[Any, Any]] = []

    def get(self, task):
        return self.inner.get(task) if self.inner is not None else None

    def put(self, task, result) -> None:
        self.results.append((task, result))
        if self.inner is not None:
            self.inner.put(task, result)


def _point_index(label: str) -> int:
    """Sweep index from a task label of the form ``<name>#p<k>``."""
    return int(label.rsplit("#p", 1)[1])


def clear_process_memos() -> None:
    """Forget the per-process network/simulator/destination-set memos, so
    a repeated set-up pays the same fills a fresh process pays."""
    for name in ("_cached_network", "_cached_simulator", "_cached_multicast_sets"):
        memo = getattr(tasks_mod, name, None)
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()


def _primer_config(seed: int) -> SimConfig:
    """A few-sample run that fills route and template caches."""
    return SimConfig(seed=seed, warmup_cycles=0.0, target_unicast_samples=30,
                     target_multicast_samples=3, max_cycles=100_000.0)


def _phase(tracer, name: str):
    return tracer.phase(name) if tracer is not None else contextlib.nullcontext()


def _report_exception(where: str) -> None:
    print(f"error in {where}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _poisson_timed(source) -> bool:
    while source.kind == "hotspot":  # a hotspot skews destinations, not timing
        source = source.base
    return source.kind == "poisson"


def _points_output(points) -> list[dict]:
    return [dataclasses.asdict(p) for p in points]


def _task_stats(completed) -> dict:
    """Per simulated task: events, sim_time, latency means and counts."""
    return {
        task.label: [r.events, r.sim_time, r.unicast.mean, r.unicast.count,
                     r.multicast.mean, r.multicast.count]
        for task, r in completed
    }


def _rerun(completed, repeats: int, res: PassResult, gate: str) -> None:
    """Execute completed simulation tasks again, uncached.  ``completed``
    holds ``(unit key, light load?, task, first result)``; every repeat
    adds one sample per task and must reproduce the first result."""
    gc.collect()  # the model passes leave a large heap behind
    for _ in range(repeats):
        for key, light, task, result in completed:
            res.attempted += 1
            again = tasks_mod.execute_task(task)
            ok = again.payload_equal(result)
            res.failed += not ok
            res.gates[gate] = res.gates.get(gate, True) and ok
            res.add_sim(key, light, again.events, again.wall_seconds)


def _series(panels) -> dict:
    """A grid pass's simulated and modelled outputs, by panel."""
    return {
        p.config.exp_id: {
            "saturation_rate": p.result.saturation_rate,
            "points": _points_output(p.result.points),
        }
        for p in panels
    }


# ---------------------------------------------------------------------- #
class PaperGrid:
    name = "paper-grid"
    min_passes = 1
    trace_pairs = 1

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.work_dir = work_dir

    def setup(self) -> None:
        clear_process_memos()
        wanted = TINY_GRID_PANELS if self.tiny else GRID_PANELS
        fractions = tuple((k + 1) * 0.8 / GRID_POINTS for k in range(GRID_POINTS))
        self.configs = [
            c.scaled(load_fractions=fractions)
            for c in paper_grid() if c.exp_id in wanted
        ]
        self.sim_config = budget_sim_config(
            seed=self.seed, samples=100 if self.tiny else GRID_SAMPLES
        )
        for config in self.configs:
            [primer] = sweep_tasks(config, [1e-4], _primer_config(self.seed))
            tasks_mod.execute_task(primer)

    def _run_panel(self, config, cache, tracer, phase: str, res: PassResult):
        """One panel through ``run_grid``; its wall time adds to ``phase``."""
        t0 = time.perf_counter()
        try:
            with _phase(tracer, phase):
                [panel] = grid_driver.run_grid(
                    [config], sim_config=self.sim_config, executor=SerialExecutor(),
                    cache=cache, derive_seeds=True,
                )
        except Exception:
            _report_exception(f"{self.name} {phase} pass, {config.exp_id}")
            panel = None
        res.walls[phase] = res.walls.get(phase, 0.0) + time.perf_counter() - t0
        return panel

    def _is_light(self, task) -> bool:
        exp_id = task.label.rsplit("#p", 1)[0]
        config = next(c for c in self.configs if c.exp_id == exp_id)
        return config.load_fractions[_point_index(task.label)] < LIGHT_BELOW

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        n_panels = len(self.configs)
        n_tasks = sum(len(c.load_fractions) for c in self.configs)
        ops = n_panels + n_tasks  # one model series per panel + its tasks
        res.attempted = 2 * ops
        # traced passes skip the re-runs, which would blur the layer table
        repeats = 0 if tracer is not None else 1 if self.tiny else GRID_SIM_REPEATS
        gate = "grid_sim_rerun_payload_equal"
        completed = []
        cache_dir = tempfile.mkdtemp(prefix="grid-cache-", dir=self.work_dir)
        try:
            cold_store = _Recording(ResultCache(cache_dir))
            cold = []
            for config in self.configs:
                cold.append(self._run_panel(config, cold_store, tracer, "cold", res))
                for task, result in cold_store.results[len(completed):]:
                    light = self._is_light(task)
                    res.add_sim(task.label, light, result.events, result.wall_seconds)
                    res.kernels.setdefault("cold", set()).add(result.kernel)
                    completed.append((task.label, light, task, result))
                _rerun(completed, repeats, res, gate)
            warm_cache = ResultCache(cache_dir)
            warm = []
            for config in self.configs:
                warm.append(self._run_panel(config, warm_cache, tracer, "warm", res))
                _rerun(completed, repeats, res, gate)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if None in cold or None in warm:
            res.failed = res.attempted
            res.gates["grid_passes_completed"] = False
            return res
        res.gates["grid_passes_completed"] = True

        for panel in cold:
            finite = math.isfinite(panel.result.saturation_rate) and all(
                math.isfinite(p.model_occupancy_unicast) for p in panel.result.points
            )
            saturated = sum(p.sim_saturated for p in panel.result.points)
            # a failed model series or a saturated point fails in both passes
            res.failed += 2 * ((not finite) + saturated)
        series = _series(cold)
        res.outputs = {"series": series, "tasks": _task_stats(cold_store.results)}
        same = _dumps(_series(warm)) == _dumps(series)
        all_hits = warm_cache.hits == n_tasks and warm_cache.misses == 0
        res.gates["grid_cold_warm_payload_equal"] = same
        res.gates["grid_warm_all_hits"] = all_hits
        if not (same and all_hits):
            res.failed = min(res.attempted, res.failed + ops)

        mapes = [p.occupancy.unicast_mape for p in cold if p.occupancy is not None]
        mapes = [m for m in mapes if not math.isnan(m)]
        if mapes:
            res.extra["model_error_pct"] = sum(mapes) / len(mapes)
        return res


# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SteadyPhase:
    name: str
    sets_seed: int  #: destination-set seed, fixed: the run seed varies the traffic
    nodes: int
    rate: float
    alpha: float
    length: int
    group: int
    warmup: float
    unicast: int  #: sample target of the whole phase, split over its runs
    multicast: int


#: each phase is this many short runs, run ``k`` with traffic seed
#: ``seed * STEADY_RUNS + k``: a run of ~0.1 s is short enough that its
#: fastest time over the passes misses the host's slow spells
STEADY_RUNS = 8
STEADY_PHASES = (
    # the sim_throughput[64] scenario, a longer sample target over the runs
    SteadyPhase("light", 1, 64, 0.024 / 64, 0.05, 32, 8, 1_500.0, 10_000, 1_500),
    # the fig6 N=128 panel, contended but below saturation
    SteadyPhase("contended", 2009, 128, CONTENDED_FRACTION * FIG6_N128_SATURATION,
                0.03, 16, 16, 2_000.0, 10_000, 600),
)


class SimSteady:
    name = "sim-steady"
    min_passes = 3
    trace_pairs = 3

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        self.runs = []
        scale = (20 if self.tiny else 1) * STEADY_RUNS
        for ph in STEADY_PHASES:
            topo = QuarcTopology(ph.nodes)
            routing = QuarcRouting(topo)
            sim = NocSimulator(topo, routing)
            sets = random_multicast_sets(routing, group_size=ph.group, seed=ph.sets_seed)
            spec = TrafficSpec(ph.rate, ph.alpha, ph.length, sets)
            config = SimConfig(
                seed=self.seed * STEADY_RUNS, warmup_cycles=ph.warmup,
                target_unicast_samples=ph.unicast // scale,
                target_multicast_samples=ph.multicast // scale,
                max_cycles=10_000_000.0,
            )
            sim.run(spec, config)  # the primer: fills route and template caches
            for k in range(STEADY_RUNS):
                run = dataclasses.replace(config, seed=self.seed * STEADY_RUNS + k)
                self.runs.append((ph, f"{ph.name}#{k}", sim, spec, run))

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        for ph, key, sim, spec, config in self.runs:
            res.attempted += 1
            t0 = time.perf_counter()
            try:
                with _phase(tracer, ph.name):
                    out = sim.run(spec, config)
            except Exception:
                _report_exception(f"{self.name} {key} run")
                res.walls[key] = time.perf_counter() - t0
                res.failed += 1
                continue
            dt = time.perf_counter() - t0
            res.walls[key] = dt
            ok = out.target_met and not out.saturated
            gate = f"{ph.name}_target_met_unsaturated"
            res.gates[gate] = res.gates.get(gate, True) and ok
            res.failed += not ok
            res.add_sim(key, ph.name == "light", out.events, dt)
            res.kernels.setdefault(ph.name, set()).add(out.kernel)
            res.outputs[key] = {
                "events": out.events, "sim_time": out.sim_time,
                "unicast": [out.unicast.mean, out.unicast.count],
                "multicast": [out.multicast.mean, out.multicast.count],
                "generated": out.generated_messages,
                "completed": out.completed_messages,
            }
        return res


# ---------------------------------------------------------------------- #
class ScenarioSuite:
    name = "scenario-suite"
    min_passes = 3
    trace_pairs = 1

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> None:
        clear_process_memos()
        names = TINY_SCENARIO_NAMES if self.tiny else SCENARIO_NAMES
        self.scenarios = [
            dataclasses.replace(scenario_driver.SCENARIOS[name], seed=self.seed)
            for name in names
        ]
        self.samples = 100 if self.tiny else 600  # run_scenario's default
        for s in self.scenarios:
            tasks_mod.execute_task(s.task(1e-4, _primer_config(self.seed)))

    def run_pass(self, tracer=None) -> PassResult:
        res = PassResult()
        # traced passes skip the re-runs, which would blur the layer table
        repeats = 0 if tracer is not None else SCENARIO_SIM_REPEATS
        with _phase(tracer, "suite"):
            for s in self.scenarios:
                points = len(s.load_fractions)
                res.attempted += 1 + points  # model series + one task per point
                store = _Recording(None)
                t0 = time.perf_counter()
                try:
                    out = scenario_driver.run_scenario(
                        s, samples=self.samples, executor=SerialExecutor(), cache=store
                    )
                except Exception:
                    res.walls[s.name] = time.perf_counter() - t0
                    _report_exception(f"{self.name} {s.name}")
                    res.failed += 1 + points
                    res.gates[f"{s.name}_completed"] = False
                    continue
                res.walls[s.name] = time.perf_counter() - t0
                completed = []
                fractions = s.load_fractions
                modelled = _poisson_timed(s.source) and s.faults is None
                for k, p in enumerate(out.points):
                    res.failed += bool(
                        p.sim_saturated and modelled
                        and fractions[k] <= MUST_NOT_SATURATE_UP_TO
                    )
                for task, result in store.results:
                    key = f"{s.name}/{task.label}"
                    light = fractions[_point_index(task.label)] < LIGHT_BELOW
                    res.add_sim(key, light, result.events, result.wall_seconds)
                    res.kernels.setdefault(s.name, set()).add(result.kernel)
                    completed.append((key, light, task, result))
                res.outputs[s.name] = {
                    "saturation_rate": out.saturation_rate,
                    "points": _points_output(out.points),
                    "tasks": _task_stats(store.results),
                }
                _rerun(completed, repeats, res, "scenario_sim_rerun_payload_equal")
        return res


WORKLOADS = {w.name: w for w in (PaperGrid, SimSteady, ScenarioSuite)}
