"""Declarative traffic scenarios: named, JSON-serialisable sweep specs.

A :class:`Scenario` binds everything that defines one model-vs-sim study
-- topology family, workload (multicast destination sets), injection
process (:class:`~repro.traffic.sources.SourceSpec`), message shape and
load grid -- into a frozen spec that

* **hashes** (``scenario_key``), with the name/description excluded, so
  two scenarios describing the same physical study are the same content;
* **serialises** to JSON and back (``to_dict``/``from_dict``), so
  scenarios travel as files, CLI arguments and CI artifacts;
* **compiles** to :class:`~repro.orchestration.tasks.SimTask` lists
  (:meth:`Scenario.tasks`), which means scenario runs ride the entire
  existing sweep/cache/adaptive/distributed stack unchanged -- a
  scenario executed through ``--workers tcp://...`` is bitwise-identical
  to a serial run, because the tasks are.

The default-source optimisation matters for the cache: a scenario whose
source is the plain Poisson spec emits tasks with ``source=None``, so
its task keys are *identical* to the keys the sweep/grid commands have
always produced -- the scenario layer adds no parallel universe of cache
entries for the same physical simulation.

:data:`SCENARIOS` registers the built-in studies the divergence analysis
(``python -m repro scenario run`` + :func:`repro.experiments.compare.
render_divergence_summary`) is built around: the Poisson control, CBR
(deterministic timing -- lower variance than the model assumes), ON/OFF
exponential and Pareto bursts (higher variance), and hotspot skew
compounded with bursts.  Where the paper's M/G/1 predictions break under
these loads is the study's deliverable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.runner import (
    SweepPoint,
    apply_adaptive_point,
    apply_task_result,
    budget_sim_config,
    model_sweep,
)
from repro.faults import FaultSpec, QoSClass, QoSSpec, link_heal, link_kill
from repro.monitors import MONITORS
from repro.orchestration.executor import Executor, ResultStore, run_tasks
from repro.orchestration.tasks import (
    NETWORK_BUILDERS,
    WORKLOAD_BUILDERS,
    SimTask,
    spawn_seeds,
)
from repro.sim.adaptive import AdaptiveSettings, run_adaptive_tasks
from repro.sim.network import NocSimulator, SimConfig
from repro.traffic.sources import DEFAULT_SOURCE, SourceSpec, source_from_dict
from repro.traffic.trace import write_trace

__all__ = [
    "SCENARIO_FORMAT_VERSION",
    "Scenario",
    "ScenarioResult",
    "SCENARIOS",
    "resolve_scenario",
    "run_scenario",
    "record_trace",
    "scenario_result_to_dict",
    "save_scenario_json",
]

SCENARIO_FORMAT_VERSION = 1


@dataclass(frozen=True)  # repro-lint: boundary
class Scenario:
    """One named study: network + workload + injection process + grid."""

    name: str
    description: str = ""
    network: str = "quarc"  #: NETWORK_BUILDERS key
    network_args: tuple[int, ...] = (16,)
    workload: str = "none"  #: WORKLOAD_BUILDERS key
    group_size: int = 0
    workload_seed: int = 2009
    rim: Optional[str] = None
    multicast_fraction: float = 0.0
    message_length: int = 32
    source: SourceSpec = field(default_factory=SourceSpec)
    #: sweep grid as fractions of the occupancy model's saturation rate
    load_fractions: tuple[float, ...] = (0.2, 0.35, 0.5, 0.65, 0.8)
    #: absolute per-node rates overriding the fraction grid when non-empty
    rates: tuple[float, ...] = ()
    one_port: bool = False
    seed: int = 2009
    #: fault schedule applied to every point of the sweep; None means a
    #: fault-free study (and is omitted from ``to_dict``/the key, so
    #: every pre-fault scenario key is unchanged)
    faults: Optional[FaultSpec] = None
    #: per-class prioritised-traffic spec; None means classless FIFO
    qos: Optional[QoSSpec] = None
    #: evaluation-monitor names attached to every point (see
    #: :data:`repro.monitors.MONITORS`)
    monitors: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if self.network not in NETWORK_BUILDERS:
            raise ValueError(
                f"unknown network builder {self.network!r}; "
                f"known: {sorted(NETWORK_BUILDERS)}"
            )
        if self.workload not in WORKLOAD_BUILDERS:
            raise ValueError(
                f"unknown workload builder {self.workload!r}; "
                f"known: {sorted(WORKLOAD_BUILDERS)}"
            )
        for attr in ("network_args", "load_fractions", "rates"):
            value = getattr(self, attr)
            if not isinstance(value, tuple):
                object.__setattr__(self, attr, tuple(value))
        if not self.load_fractions and not self.rates:
            raise ValueError("a scenario needs load_fractions or rates")
        if isinstance(self.source, dict):
            object.__setattr__(self, "source", source_from_dict(self.source))
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            object.__setattr__(self, "faults", FaultSpec.from_dict(self.faults))
        if self.qos is not None and not isinstance(self.qos, QoSSpec):
            object.__setattr__(self, "qos", QoSSpec.from_dict(self.qos))
        if not isinstance(self.monitors, tuple):
            object.__setattr__(self, "monitors", tuple(self.monitors))
        unknown_monitors = [m for m in self.monitors if m not in MONITORS]
        if unknown_monitors:
            raise ValueError(
                f"unknown monitors {unknown_monitors}; "
                f"known: {sorted(MONITORS)}"
            )

    # ------------------------------------------------------------------ #
    def task(self, rate: float, sim: SimConfig, *, label: str = "") -> SimTask:
        """One :class:`SimTask` of this scenario at ``rate``."""
        return SimTask(
            network=self.network,
            network_args=self.network_args,
            workload=self.workload,
            group_size=self.group_size,
            workload_seed=self.workload_seed,
            rim=self.rim,
            message_rate=rate,
            multicast_fraction=self.multicast_fraction,
            message_length=self.message_length,
            sim=sim,
            one_port=self.one_port,
            # the default Poisson spec ships as None so the task key --
            # and therefore the cache entry -- is identical to what the
            # sweep/grid commands have always produced
            source=self.source if self.source != DEFAULT_SOURCE else None,
            faults=self.faults,
            qos=self.qos,
            monitors=self.monitors,
            scenario=self.name,
            label=label or f"{self.name}@{rate:.6g}",
        )

    def tasks(
        self,
        rates: Sequence[float],
        sim_config: SimConfig,
        *,
        derive_seeds: bool = True,
    ) -> list[SimTask]:
        """The scenario's sweep as tasks, one per rate, with independent
        SeedSequence-derived per-point seeds by default."""
        seeds = (
            spawn_seeds(sim_config.seed, len(rates))
            if derive_seeds
            else [sim_config.seed] * len(rates)
        )
        return [
            self.task(
                rate,
                dataclasses.replace(sim_config, seed=seed),
                label=f"{self.name}#p{k}",
            )
            for k, (rate, seed) in enumerate(zip(rates, seeds))
        ]

    def model_series(self) -> tuple[float, list[float], list[SweepPoint]]:
        """Both analytical recursions over the scenario's grid, on its
        port model: ``(saturation_rate, rates, points)`` with sim fields
        unset.

        The model always assumes Poisson timing -- that is the point:
        for a non-Poisson source the model series is the paper's
        prediction under its own assumptions, and the gap to the
        simulated series *is* the divergence under study.  Destination
        skew, by contrast, is modelled faithfully: a hotspot source's
        weight vector flows into the spec both here and in the
        simulator, so the divergence isolates the timing assumption.
        """
        probe = self.task(0.0, SimConfig())
        topo, routing = probe.build_network()
        spec = probe.build_spec(routing, sets=probe.build_sets(routing))
        return model_sweep(
            topo, routing, spec,
            load_fractions=self.load_fractions, rates=self.rates or None,
            one_port=self.one_port,
        )

    # ------------------------------------------------------------------ #
    def canonical(self) -> dict:
        """Content dictionary, descriptive fields excluded: what the
        scenario *runs*, not what it is called."""
        d = self.to_dict()
        d.pop("format_version")
        # repro-lint: ok hash-coverage -- the name is what a study is *called*, not what it *is*
        d.pop("name")
        # repro-lint: ok hash-coverage -- prose; rewording it must not invalidate cached results
        d.pop("description")
        return d

    def scenario_key(self) -> str:
        """Stable content hash of the study (name/description excluded)."""
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:32]

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["network_args"] = list(self.network_args)
        d["load_fractions"] = list(self.load_fractions)
        d["rates"] = list(self.rates)
        d["source"] = self.source.as_dict()
        # defaults are omitted entirely (mirroring SimTask.canonical), so
        # every pre-fault scenario dict -- and with it the scenario key
        # -- is byte-identical to what earlier versions produced
        if self.faults is None:
            d.pop("faults")
        else:
            d["faults"] = self.faults.as_dict()
        if self.qos is None:
            d.pop("qos")
        else:
            d["qos"] = self.qos.as_dict()
        if not self.monitors:
            d.pop("monitors")
        else:
            d["monitors"] = list(self.monitors)
        d["format_version"] = SCENARIO_FORMAT_VERSION
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        data = dict(data)
        version = data.pop("format_version", SCENARIO_FORMAT_VERSION)
        if version != SCENARIO_FORMAT_VERSION:
            raise ValueError(f"unsupported scenario format version {version!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown Scenario fields: {sorted(unknown)}")
        if isinstance(data.get("source"), dict):
            data["source"] = source_from_dict(data["source"])
        if isinstance(data.get("faults"), dict):
            data["faults"] = FaultSpec.from_dict(data["faults"])
        if isinstance(data.get("qos"), dict):
            data["qos"] = QoSSpec.from_dict(data["qos"])
        for attr in ("network_args", "load_fractions", "rates", "monitors"):
            if attr in data:
                data[attr] = tuple(data[attr])
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))


@dataclass
class ScenarioResult:
    """One scenario's completed sweep (duck-compatible with
    :class:`~repro.experiments.runner.ExperimentResult` where the
    agreement/divergence metrics need it)."""

    scenario: Scenario
    saturation_rate: float
    points: list[SweepPoint] = field(default_factory=list)
    wall_seconds: float = 0.0

    def finite_points(self) -> list[SweepPoint]:
        return [p for p in self.points if not p.sim_saturated and p.has_sim]


def run_scenario(
    scenario: Scenario,
    *,
    samples: int = 600,
    sim_config: Optional[SimConfig] = None,
    executor: Optional[Executor] = None,
    cache: Optional[ResultStore] = None,
    adaptive: Optional[AdaptiveSettings] = None,
    derive_seeds: bool = True,
) -> ScenarioResult:
    """Run one scenario end to end: model series + simulated sweep.

    ``executor`` / ``cache`` / ``adaptive`` plug the scenario into the
    orchestration stack exactly as ``run_experiment`` does for the paper
    panels -- the compiled tasks are ordinary :class:`SimTask`, so
    serial, process-pool and distributed execution are bitwise
    interchangeable.
    """
    # repro-lint: ok determinism -- wall_seconds is report provenance; no simulated value uses it
    start = time.perf_counter()
    sat, sweep, points = scenario.model_series()
    result = ScenarioResult(
        scenario=scenario, saturation_rate=sat, points=points
    )
    scfg = sim_config or budget_sim_config(seed=scenario.seed, samples=samples)
    tasks = scenario.tasks(sweep, scfg, derive_seeds=derive_seeds)
    if adaptive is None:
        for point, tres in zip(
            points, run_tasks(tasks, executor=executor, cache=cache)
        ):
            apply_task_result(point, tres)
    else:
        for point, ap in zip(
            points,
            run_adaptive_tasks(tasks, adaptive, executor=executor, cache=cache),
        ):
            apply_adaptive_point(point, ap)
    # repro-lint: ok determinism -- wall-clock provenance, excluded from all payload comparisons
    result.wall_seconds = time.perf_counter() - start
    return result


def scenario_result_to_dict(result: ScenarioResult) -> dict:
    """JSON-ready form of a scenario sweep (the CI smoke's diff unit)."""

    def enc(x):
        if isinstance(x, float):
            if math.isnan(x):
                return "nan"
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
        return x

    points = []
    for p in result.points:
        d = dataclasses.asdict(p)
        points.append({k: enc(v) for k, v in d.items()})
    return {
        "format_version": SCENARIO_FORMAT_VERSION,
        "scenario": result.scenario.to_dict(),
        "scenario_key": result.scenario.scenario_key(),
        "saturation_rate": enc(result.saturation_rate),
        "points": points,
    }


def save_scenario_json(result: ScenarioResult, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(scenario_result_to_dict(result), indent=2))
    return path


def record_trace(
    scenario: Scenario,
    rate: float,
    path: str | Path,
    *,
    sim_config: Optional[SimConfig] = None,
    samples: int = 600,
) -> SourceSpec:
    """Run ``scenario`` serially at ``rate``, record every arrival the
    source emitted, and write a replayable trace file.

    Returns the trace :class:`SourceSpec` -- path plus content digest --
    that replays the captured workload exactly; replaying through
    ``SourceSpec(kind="trace", ...)`` reproduces the recorded run's
    arrival sequence on any kernel and any executor.  Recording is
    serial by construction: a trace is one sample path, so there is
    nothing to parallelise.
    """
    scfg = sim_config or budget_sim_config(seed=scenario.seed, samples=samples)
    task = scenario.task(rate, scfg, label=f"{scenario.name}@record")
    topo, routing = task.build_network()
    sets = task.build_sets(routing)
    spec = task.build_spec(routing, sets=sets)
    simulator = NocSimulator(topo, routing, one_port=scenario.one_port)
    log: list[tuple[float, int, int]] = []
    source = task.source if task.source is not None else DEFAULT_SOURCE
    simulator.run(spec, scfg, source=source, arrival_log=log)
    digest = write_trace(
        path,
        topo.num_nodes,
        log,
        metadata={
            "scenario": scenario.name,
            "scenario_key": scenario.scenario_key(),
            "source": source.label,
            "rate": rate,
            "seed": scfg.seed,
        },
    )
    return SourceSpec(
        kind="trace", trace_path=str(path), trace_digest=digest
    )


# --------------------------------------------------------------------- #
# the built-in registry
# --------------------------------------------------------------------- #
def _quarc16(name: str, description: str, **kw) -> Scenario:
    """The registry's shared baseline panel: the fig6-N16 configuration
    (random destination sets, alpha=5%, M=32), varied only in the
    injection process -- so cross-scenario differences isolate the
    source."""
    return Scenario(
        name=name,
        description=description,
        network="quarc",
        network_args=(16,),
        workload=kw.pop("workload", "random"),
        group_size=kw.pop("group_size", 6),
        multicast_fraction=kw.pop("multicast_fraction", 0.05),
        message_length=kw.pop("message_length", 32),
        **kw,
    )


_ONOFF = SourceSpec(kind="onoff", on_mean=200.0, off_mean=600.0)
_ONOFF_PARETO = SourceSpec(
    kind="onoff", on_mean=200.0, off_mean=600.0,
    on_tail="pareto", pareto_alpha=1.5,
)

SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        _quarc16(
            "poisson-uniform",
            "The control: Poisson timing, uniform destinations -- the "
            "paper's own assumptions, where the model must agree.",
        ),
        _quarc16(
            "cbr-uniform",
            "Deterministic CBR timing with full phase jitter: arrival "
            "variance below the M/G/1 assumption, so the model should "
            "over-predict queueing delay.",
            source=SourceSpec(kind="cbr", cbr_jitter=1.0),
        ),
        _quarc16(
            "cbr-sync",
            "Phase-locked CBR (zero jitter): every node injects in the "
            "same cycle -- the worst-case synchronous burst the Poisson "
            "model never sees.",
            source=SourceSpec(kind="cbr", cbr_jitter=0.0),
        ),
        _quarc16(
            "onoff-bursty",
            "MMPP ON/OFF bursts (duty 0.25, exponential windows): "
            "arrival variance above Poisson; the model should "
            "under-predict latency as load grows.",
            source=_ONOFF,
        ),
        _quarc16(
            "onoff-pareto",
            "Pareto-tailed ON/OFF bursts (alpha=1.5): heavy-tailed "
            "window durations toward self-similar load -- the regime "
            "where M/G/1 assumptions break hardest.",
            source=_ONOFF_PARETO,
        ),
        _quarc16(
            "hotspot-poisson",
            "Poisson timing with an 8x destination hotspot on node 0: "
            "the skew is modelled (shared weight vector), so model and "
            "sim should still agree -- the skew control for the "
            "hotspot-onoff study.",
            source=SourceSpec(
                kind="hotspot", base=SourceSpec(),
                hotspots=(0,), hotspot_factor=8.0,
            ),
        ),
        _quarc16(
            "hotspot-onoff",
            "Bursty ON/OFF timing compounded with an 8x hotspot: "
            "burstiness concentrated on a congested resource -- the "
            "compounding the model cannot see.",
            source=SourceSpec(
                kind="hotspot", base=_ONOFF,
                hotspots=(0,), hotspot_factor=8.0,
            ),
        ),
        _quarc16(
            "link-kill",
            "Fault-injection study on the baseline panel: both "
            "directions of the rim link 0<->1 die mid-measurement and "
            "heal later, with two-priority QoS traffic and the full "
            "monitor suite -- PDR, per-class latency, hop stretch and "
            "deadlock recoveries quantify the degraded epoch.",
            source=SourceSpec(
                kind="hotspot", base=SourceSpec(),
                hotspots=(0,), hotspot_factor=8.0,
            ),
            faults=FaultSpec(
                events=(
                    link_kill(2_500.0, 0, 1),
                    link_kill(2_500.0, 1, 0),
                    link_heal(9_000.0, 0, 1),
                    link_heal(9_000.0, 1, 0),
                )
            ),
            qos=QoSSpec(
                classes=(
                    QoSClass("bulk", 0.75, priority=0),
                    QoSClass("express", 0.25, priority=1),
                )
            ),
            monitors=("pdr", "class-latency", "hop-stretch", "deadlock"),
        ),
        _quarc16(
            "deadlock-onset",
            "Deadlock-onset sweep: the baseline panel pushed through "
            "and past the occupancy model's saturation estimate.  "
            "Points with recoveries > 0 are past the model's validity "
            "range -- the divergence panel flags them.",
            load_fractions=(0.8, 0.9, 1.0, 1.1),
            monitors=("deadlock",),
        ),
        Scenario(
            name="mesh-onoff",
            description=(
                "ON/OFF bursts on a 4x4 mesh (unicast only): the "
                "divergence study off the paper's own topology."
            ),
            network="mesh",
            network_args=(4, 4),
            workload="none",
            multicast_fraction=0.0,
            message_length=32,
            source=_ONOFF,
        ),
    )
}


def resolve_scenario(name_or_path: str) -> Scenario:
    """A registry name, or a path to a scenario JSON file."""
    if name_or_path in SCENARIOS:
        return SCENARIOS[name_or_path]
    path = Path(name_or_path)
    if path.is_file():
        return Scenario.from_json(path.read_text())
    raise ValueError(
        f"unknown scenario {name_or_path!r}: not a registered name "
        f"({', '.join(sorted(SCENARIOS))}) and not a readable file"
    )
