"""Pure-data simulation tasks: describe, hash, ship and execute one run.

A :class:`SimTask` is the unit of work of the orchestration layer.  It
carries no live objects -- only builder *keys* (topology/routing family,
destination-set family) plus the scalar :class:`~repro.core.flows.
TrafficSpec` fields and the :class:`~repro.sim.network.SimConfig` -- so it

* **pickles** cheaply across a process boundary,
* **hashes** stably (:meth:`SimTask.task_key`), giving the disk cache a
  content address, and
* **rebuilds** the heavyweight network/workload objects inside the worker
  (:func:`execute_task`), which keeps parent and worker structurally
  identical: the same builders run from the same keys, so a task executed
  serially, in a pool, or from cache yields the same numbers.

Per-task seed derivation uses :class:`numpy.random.SeedSequence` spawning
(:func:`spawn_seeds`): statistically independent streams that depend only
on ``(base_seed, index)``, never on scheduling order.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import numpy as np

from repro.core.flows import TrafficSpec
from repro.faults import FaultSpec, QoSSpec
from repro.routing import MeshRouting, QuarcRouting, SpidergonRouting, TorusRouting
from repro.routing.base import RoutingAlgorithm
from repro.sim.engine import ENGINE_VERSION
from repro.sim.measurement import LatencyStats
from repro.sim.network import NocSimulator, SimConfig, SimResult
from repro.topology import MeshTopology, QuarcTopology, SpidergonTopology, TorusTopology
from repro.topology.base import Topology
from repro.traffic.sources import SourceSpec, source_from_dict
from repro.workloads import localized_multicast_sets, random_multicast_sets

__all__ = [
    "CACHE_FORMAT_VERSION",
    "NETWORK_BUILDERS",
    "WORKLOAD_BUILDERS",
    "SimTask",
    "StatsSummary",
    "TaskResult",
    "execute_task",
    "spawn_seeds",
    "task_result_to_dict",
    "task_result_from_dict",
]

#: the ``sim`` entry every task key has always hashed: ``SimConfig`` once
#: had an ``arrival_mode`` field, always ``"legacy"`` in practice, and
#: dropping the entry would move every task key (the frozen key
#: ``4a514e...`` of ``tests/test_traffic_refactor.py`` would become
#: ``0e850d23...``) and strand every cached result
_LEGACY_ARRIVAL_MODE = {"arrival_mode": "legacy"}

#: topology family key -> (topology class, routing class); ``network_args``
#: are the positional constructor arguments of the topology class.
NETWORK_BUILDERS: dict[str, tuple[type, type]] = {
    "quarc": (QuarcTopology, QuarcRouting),
    "spidergon": (SpidergonTopology, SpidergonRouting),
    "mesh": (MeshTopology, MeshRouting),
    "torus": (TorusTopology, TorusRouting),
}

#: destination-set family key -> builder(routing, task) -> multicast sets
WORKLOAD_BUILDERS: dict[
    str, Callable[[RoutingAlgorithm, "SimTask"], Mapping[int, frozenset[int]]]
] = {
    "none": lambda routing, task: {},
    "random": lambda routing, task: random_multicast_sets(
        routing, task.group_size, task.workload_seed
    ),
    "random_per_node": lambda routing, task: random_multicast_sets(
        routing, task.group_size, task.workload_seed, mode="per_node"
    ),
    "localized": lambda routing, task: localized_multicast_sets(
        routing, task.group_size, task.workload_seed, rim=task.rim
    ),
}


def spawn_seeds(base_seed: int, n: int) -> list[int]:
    """``n`` independent child seeds of ``base_seed`` via
    ``SeedSequence.spawn`` -- deterministic in ``(base_seed, index)`` and
    statistically non-overlapping, unlike ``base_seed + k`` striding."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    children = np.random.SeedSequence(base_seed).spawn(n)
    return [int(child.generate_state(1, dtype=np.uint32)[0]) for child in children]


@dataclass(frozen=True)  # repro-lint: boundary
class SimTask:
    """One simulation run as pure, picklable data.

    The network and workload are referenced by builder key (see
    :data:`NETWORK_BUILDERS` / :data:`WORKLOAD_BUILDERS`) and rebuilt in
    whichever process executes the task.  ``label`` is descriptive only
    and excluded from the content hash.
    """

    network: str  #: NETWORK_BUILDERS key, e.g. "quarc"
    network_args: tuple[int, ...]  #: topology constructor args, e.g. (16,)
    workload: str = "none"  #: WORKLOAD_BUILDERS key
    group_size: int = 0
    workload_seed: int = 0
    rim: Optional[str] = None
    # TrafficSpec scalars
    message_rate: float = 0.0
    multicast_fraction: float = 0.0
    message_length: int = 1
    # run control (carries the per-task derived seed)
    sim: SimConfig = field(default_factory=SimConfig)
    one_port: bool = False
    #: injection process; None means the default Poisson source and is
    #: *omitted* from the content hash, so every pre-existing task key
    #: (and with it the disk cache and journals) is unchanged, while any
    #: non-default source perturbs the key
    source: Optional[SourceSpec] = None
    #: fault schedule; None means a fault-free run and is omitted from
    #: the content hash (mirroring ``source``), so every pre-fault task
    #: key is unchanged while any schedule perturbs the key
    faults: Optional[FaultSpec] = None
    #: per-class prioritised-traffic spec; None means classless FIFO
    #: arbitration and is omitted from the content hash like ``faults``
    qos: Optional[QoSSpec] = None
    #: evaluation-monitor names attached to the run.  Hashed: monitors
    #: are observers, but attaching one bounces the C kernel-free fast
    #: paths through extra bookkeeping, and the cached payload gains a
    #: ``monitors`` block -- two tasks differing only here must not
    #: share a cache entry.  ``()`` (the default) is omitted so
    #: pre-monitor task keys are unchanged
    monitors: tuple[str, ...] = ()
    #: owning scenario name -- descriptive provenance like ``label``,
    #: excluded from the content hash (two scenarios describing the same
    #: physical run must share cache entries)
    scenario: str = ""
    label: str = ""

    def __post_init__(self) -> None:
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
        # normalise list -> tuple so hashing and pickling are canonical
        if not isinstance(self.network_args, tuple):
            object.__setattr__(self, "network_args", tuple(self.network_args))
        if self.source is not None and not isinstance(self.source, SourceSpec):
            object.__setattr__(self, "source", source_from_dict(self.source))
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            object.__setattr__(self, "faults", FaultSpec.from_dict(self.faults))
        if self.qos is not None and not isinstance(self.qos, QoSSpec):
            object.__setattr__(self, "qos", QoSSpec.from_dict(self.qos))
        if not isinstance(self.monitors, tuple):
            object.__setattr__(self, "monitors", tuple(self.monitors))

    # ------------------------------------------------------------------ #
    # the single construction path: the per-process memos below delegate
    # here, so task fields can never drift from what execution builds
    def build_network(self) -> tuple[Topology, RoutingAlgorithm]:
        topo_cls, routing_cls = NETWORK_BUILDERS[self.network]
        topo = topo_cls(*self.network_args)
        return topo, routing_cls(topo)

    def build_sets(self, routing: RoutingAlgorithm) -> Mapping[int, frozenset[int]]:
        return WORKLOAD_BUILDERS[self.workload](routing, self)

    def build_spec(
        self,
        routing: RoutingAlgorithm,
        sets: Optional[Mapping[int, frozenset[int]]] = None,
    ) -> TrafficSpec:
        if sets is None:
            sets = self.build_sets(routing)
        # a skewing source's destination weights go into the spec here so
        # the analytical model and the simulator read the same vector
        weights = None
        if self.source is not None:
            weights = self.source.unicast_weights(routing.topology.num_nodes)
        return TrafficSpec(
            message_rate=self.message_rate,
            multicast_fraction=self.multicast_fraction,
            message_length=self.message_length,
            multicast_sets=sets,
            unicast_weights=weights,
        )

    # ------------------------------------------------------------------ #
    def canonical(self) -> dict[str, Any]:
        """Content dictionary: every field that determines the outcome
        (descriptive ``label``/``scenario`` excluded), with deterministic
        key order.  A ``source`` of None (the default Poisson process) is
        omitted entirely, keeping every pre-subsystem task key stable;
        ``faults``/``qos`` of None and an empty ``monitors`` tuple are
        omitted the same way for the same reason."""
        d = dataclasses.asdict(self)
        d["sim"].update(_LEGACY_ARRIVAL_MODE)
        # repro-lint: ok hash-coverage -- label is descriptive only; it must not split cache entries
        d.pop("label")
        # repro-lint: ok hash-coverage -- scenario is provenance; a rename must not split the cache
        d.pop("scenario")
        if d["source"] is None:
            d.pop("source")
        else:
            d["source"] = self.source.as_dict()
        if d["faults"] is None:
            d.pop("faults")
        else:
            d["faults"] = self.faults.as_dict()
        if d["qos"] is None:
            d.pop("qos")
        else:
            d["qos"] = self.qos.as_dict()
        if not self.monitors:
            d.pop("monitors")
        else:
            d["monitors"] = list(self.monitors)
        d["network_args"] = list(self.network_args)
        return d

    def task_key(self) -> str:
        """Stable content hash -- the disk cache's address."""
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:32]

    def with_seed(self, seed: int) -> "SimTask":
        return dataclasses.replace(
            self, sim=dataclasses.replace(self.sim, seed=seed)
        )


@dataclass(frozen=True)  # repro-lint: boundary
class StatsSummary:
    """Picklable, JSON-friendly summary of one :class:`LatencyStats`."""

    mean: float = math.nan
    ci95: float = math.nan
    count: int = 0

    @classmethod
    def from_stats(cls, stats: LatencyStats) -> "StatsSummary":
        return cls(mean=stats.mean, ci95=stats.ci95_halfwidth(), count=stats.count)

    def ci95_halfwidth(self) -> float:
        """Interface-compatible with :class:`LatencyStats`."""
        return self.ci95


@dataclass(frozen=True)  # repro-lint: boundary
class TaskResult:
    """Outcome of one :class:`SimTask` (the cacheable subset of
    :class:`~repro.sim.network.SimResult`)."""

    task_key: str
    label: str
    unicast: StatsSummary
    multicast: StatsSummary
    saturated: bool
    target_met: bool
    deadlock_recoveries: int
    recovered_samples: int
    sim_time: float
    events: int
    generated_messages: int
    completed_messages: int
    wall_seconds: float = 0.0
    #: True when this result was served from the disk cache
    cached: bool = False
    #: resolved kernel that simulated this result (pure provenance: the
    #: kernels are bit-identical, so payload comparisons ignore it)
    kernel: str = ""
    #: traffic-source label that drove this result (provenance,
    #: mirroring ``kernel``; ``"poisson"`` for the default process)
    source: str = ""
    #: owning scenario name (descriptive provenance, like ``label``)
    scenario: str = ""
    #: offered-load accounting: nominal per-node injection rate vs the
    #: measured one (generated msgs / node / cycle).  Derived from the
    #: payload fields, so payload comparisons skip them -- entries
    #: written before the stamp existed read back as NaN
    nominal_load: float = math.nan
    offered_load: float = math.nan
    #: messages lost to injected faults (spawn-time + in-flight drops).
    #: Payload, not provenance: a faulted run's loss count is part of
    #: the outcome, so ``payload_equal`` compares it
    fault_drops: int = 0
    #: finalised monitor payloads keyed by monitor name (None when the
    #: task attached no monitors).  Payload like ``fault_drops``
    monitors: Optional[dict] = None

    @classmethod
    def from_sim(
        cls, task: SimTask, result: SimResult, wall_seconds: float
    ) -> "TaskResult":
        return cls(
            task_key=task.task_key(),
            label=task.label,
            unicast=StatsSummary.from_stats(result.unicast),
            multicast=StatsSummary.from_stats(result.multicast),
            saturated=result.saturated,
            target_met=result.target_met,
            deadlock_recoveries=result.deadlock_recoveries,
            recovered_samples=result.recovered_samples,
            sim_time=result.sim_time,
            events=result.events,
            generated_messages=result.generated_messages,
            completed_messages=result.completed_messages,
            wall_seconds=wall_seconds,
            kernel=result.kernel,
            source=result.source,
            scenario=task.scenario,
            nominal_load=result.nominal_load,
            offered_load=result.offered_load,
            fault_drops=result.fault_drops,
            monitors=result.monitors,
        )

    def payload_equal(self, other: "TaskResult") -> bool:
        """Equality on the simulation outcome, ignoring provenance
        (wall-clock, cache flag, kernel/source names, descriptive
        label/scenario) and the derived load-accounting floats (pure
        functions of payload fields; absent in older entries).  NaNs
        compare equal."""
        a = task_result_to_dict(self)
        b = task_result_to_dict(other)
        for d in (a, b):
            d.pop("wall_seconds")
            d.pop("label")
            d.pop("kernel")
            d.pop("source")
            d.pop("scenario")
            d.pop("nominal_load")
            d.pop("offered_load")
        return a == b


@functools.lru_cache(maxsize=16)
def _cached_network(
    network: str, network_args: tuple[int, ...]
) -> tuple[Topology, RoutingAlgorithm]:
    """Per-process (network, args) -> (topology, routing) memo."""
    return SimTask(network=network, network_args=network_args).build_network()


@functools.lru_cache(maxsize=16)
def _cached_simulator(
    network: str, network_args: tuple[int, ...], one_port: bool
) -> NocSimulator:
    """Per-process simulator memo.

    Builders are deterministic, the simulator draws all randomness from
    the per-run ``SimConfig`` seed, and a sweep formerly reused one
    simulator across its points anyway -- so sharing the instance across
    tasks in a process changes nothing but the rebuild cost (topology +
    routing + ChannelGraph per point)."""
    topo, routing = _cached_network(network, network_args)
    return NocSimulator(topo, routing, one_port=one_port)


@functools.lru_cache(maxsize=64)
def _cached_multicast_sets(
    network: str,
    network_args: tuple[int, ...],
    workload: str,
    group_size: int,
    workload_seed: int,
    rim: Optional[str],
) -> Mapping[int, frozenset[int]]:
    """Per-process destination-set memo (deterministic in its key;
    destination sets depend on topology/routing only, never the port
    model)."""
    _, routing = _cached_network(network, network_args)
    probe = SimTask(
        network=network,
        network_args=network_args,
        workload=workload,
        group_size=group_size,
        workload_seed=workload_seed,
        rim=rim,
    )
    return probe.build_sets(routing)


def execute_task(task: SimTask) -> TaskResult:
    """Build the network and workload from the task's keys and run the
    simulator.  Top-level function: picklable for process pools.  The
    heavyweight deterministic objects (network, routing, destination
    sets) are memoised per process, so a serial sweep pays the build
    cost once per panel -- as the pre-orchestration loop did."""
    start = time.perf_counter()
    simulator = _cached_simulator(task.network, task.network_args, task.one_port)
    sets = _cached_multicast_sets(
        task.network,
        task.network_args,
        task.workload,
        task.group_size,
        task.workload_seed,
        task.rim,
    )
    spec = task.build_spec(simulator.routing, sets=sets)
    result = simulator.run(
        spec,
        task.sim,
        source=task.source,
        faults=task.faults,
        qos=task.qos,
        monitors=task.monitors,
    )
    return TaskResult.from_sim(task, result, time.perf_counter() - start)


# ---------------------------------------------------------------------- #
# JSON round-trip (the disk cache's on-disk format)

#: bump whenever this payload *layout* changes -- entries with another
#: version are unreadable and treated as cache misses.  Kernel behaviour
#: is tracked separately by the ``engine`` stamp
#: (:data:`repro.sim.engine.ENGINE_VERSION`): an entry simulated by a
#: different kernel is reported as stale and recomputed, never served
#: silently, even when the layout still parses.  The stamp is about
#: provenance, not payload compatibility -- the v2->v3 calendar-kernel
#: swap was proven bit-identical, yet v2 entries still read as stale,
#: because "which kernel produced this number" must never be guessed.
#: The per-entry ``kernel`` key (heap / calendar / c) is finer-grained
#: provenance still: it names the scheduler that produced the numbers
#: without gating reads, since all registered kernels are bit-identical
#: within one engine version (entries written before the key exist read
#: back with an empty name).
CACHE_FORMAT_VERSION = 1


def _enc(x: Any) -> Any:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
    return x


def _stats_to_dict(s: StatsSummary) -> dict[str, Any]:
    return {"mean": _enc(s.mean), "ci95": _enc(s.ci95), "count": s.count}


def _stats_from_dict(d: dict[str, Any]) -> StatsSummary:
    return StatsSummary(
        mean=float(d["mean"]), ci95=float(d["ci95"]), count=int(d["count"])
    )


def task_result_to_dict(result: TaskResult) -> dict[str, Any]:
    return {
        "format": CACHE_FORMAT_VERSION,
        "engine": ENGINE_VERSION,
        "task_key": result.task_key,
        "label": result.label,
        "unicast": _stats_to_dict(result.unicast),
        "multicast": _stats_to_dict(result.multicast),
        "saturated": result.saturated,
        "target_met": result.target_met,
        "deadlock_recoveries": result.deadlock_recoveries,
        "recovered_samples": result.recovered_samples,
        "sim_time": result.sim_time,
        "events": result.events,
        "generated_messages": result.generated_messages,
        "completed_messages": result.completed_messages,
        "wall_seconds": result.wall_seconds,
        "kernel": result.kernel,
        "source": result.source,
        "scenario": result.scenario,
        "nominal_load": _enc(result.nominal_load),
        "offered_load": _enc(result.offered_load),
        "fault_drops": result.fault_drops,
        "monitors": result.monitors,
    }


def task_result_from_dict(
    data: dict[str, Any], *, cached: bool = False
) -> TaskResult:
    version = data.get("format")
    if version != CACHE_FORMAT_VERSION:
        raise ValueError(f"unsupported task-result format {version!r}")
    engine = data.get("engine")
    if engine != ENGINE_VERSION:
        raise ValueError(
            f"result simulated by engine version {engine!r}, current is "
            f"{ENGINE_VERSION}"
        )
    return TaskResult(
        task_key=data["task_key"],
        label=data.get("label", ""),
        unicast=_stats_from_dict(data["unicast"]),
        multicast=_stats_from_dict(data["multicast"]),
        saturated=bool(data["saturated"]),
        target_met=bool(data["target_met"]),
        deadlock_recoveries=int(data["deadlock_recoveries"]),
        recovered_samples=int(data["recovered_samples"]),
        sim_time=float(data["sim_time"]),
        events=int(data["events"]),
        generated_messages=int(data["generated_messages"]),
        completed_messages=int(data["completed_messages"]),
        wall_seconds=float(data.get("wall_seconds", 0.0)),
        cached=cached,
        kernel=str(data.get("kernel", "")),
        source=str(data.get("source", "")),
        scenario=str(data.get("scenario", "")),
        nominal_load=float(data.get("nominal_load", math.nan)),
        offered_load=float(data.get("offered_load", math.nan)),
        fault_drops=int(data.get("fault_drops", 0)),
        monitors=data.get("monitors"),
    )
