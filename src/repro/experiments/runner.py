"""Run one experiment config: model (both recursions) + simulator sweep.

The sweep is expressed as a list of picklable
:class:`~repro.orchestration.tasks.SimTask` (one per offered-load point,
:func:`sweep_tasks`) submitted to an
:class:`~repro.orchestration.executor.Executor`; the model series
(:func:`model_sweep`) is evaluated in-process before the tasks are
submitted.  It is not cheap: the saturation-rate bisection solves the
Eq. 6 fixed point about twenty times, thousands of iterations each next
to saturation, and on the N=64 benchmark panels the model series takes
about twenty times as long as the panel's four 400-sample simulations
(README "Performance").  The default executor is serial and reproduces
the historical single-loop behaviour bit for bit; a
:class:`~repro.orchestration.executor.ParallelExecutor` fans the points
out across worker processes and yields the identical series, because
every point's outcome depends only on its task content (builders, spec,
seed), not on scheduling.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.flows import TrafficSpec
from repro.core.model import AnalyticalModel
from repro.experiments.config import ExperimentConfig
from repro.orchestration.executor import Executor, ResultStore, run_tasks
from repro.orchestration.tasks import SimTask, TaskResult, spawn_seeds
from repro.routing.base import RoutingAlgorithm
from repro.sim.adaptive import AdaptivePoint, AdaptiveSettings, run_adaptive_tasks
from repro.sim.network import SimConfig
from repro.topology.base import Topology

__all__ = [
    "SweepPoint",
    "ExperimentResult",
    "RateDriftWarning",
    "run_experiment",
    "sweep_tasks",
    "model_series",
    "model_sweep",
    "budget_sim_config",
    "default_sim_config",
    "apply_task_result",
    "apply_adaptive_point",
    "ADAPTIVE_SAMPLES_PER_REPLICATION",
]


class RateDriftWarning(UserWarning):
    """The measured injection rate drifted from the nominal offered load
    beyond statistical noise -- a bursty/trace source is not delivering
    the rate the sweep thinks it is."""


@dataclass
class SweepPoint:
    """One offered-load point of a figure series."""

    rate: float
    model_paper_unicast: float
    model_paper_multicast: float
    model_occupancy_unicast: float
    model_occupancy_multicast: float
    sim_unicast: float = math.nan
    sim_unicast_ci95: float = math.nan
    sim_multicast: float = math.nan
    sim_multicast_ci95: float = math.nan
    sim_saturated: bool = False
    sim_deadlock_recoveries: int = 0
    sim_samples_unicast: int = 0
    sim_samples_multicast: int = 0
    #: independent replications pooled into the sim fields (1 = one fixed
    #: run, the historical behaviour; >1 = adaptive sampling)
    sim_replications: int = 0
    #: why adaptive sampling stopped ("" for fixed-budget runs)
    sim_stop_reason: str = ""
    #: measured injection rate (generated msgs/node/cycle) -- NaN for
    #: results predating the offered-load stamp
    offered_load: float = math.nan
    #: messages lost to injected faults (0 for fault-free runs; summed
    #: over replications under adaptive sampling)
    sim_fault_drops: int = 0
    #: finalised monitor payloads keyed by monitor name, None when the
    #: point ran without monitors.  Adaptive points stay None: each
    #: replication finalises its own monitors and no pooling rule is
    #: defined for, e.g., per-class CI halfwidths -- summing them would
    #: fabricate a statistic
    sim_monitors: Optional[dict] = None

    @property
    def has_sim(self) -> bool:
        return not math.isnan(self.sim_unicast)

    @property
    def offered_load_drift(self) -> float:
        """Relative deviation of the measured injection rate from the
        nominal sweep rate (NaN when unmeasured)."""
        if math.isnan(self.offered_load) or self.rate <= 0.0:
            return math.nan
        return (self.offered_load - self.rate) / self.rate

    @property
    def sim_rel_halfwidth(self) -> float:
        """Achieved relative 95% half-width of the unicast mean."""
        if not self.has_sim or self.sim_unicast == 0.0:
            return math.nan
        return self.sim_unicast_ci95 / abs(self.sim_unicast)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    saturation_rate: float  #: model (occupancy) saturation estimate
    points: list[SweepPoint] = field(default_factory=list)
    wall_seconds: float = 0.0

    def finite_points(self) -> list[SweepPoint]:
        return [p for p in self.points if not p.sim_saturated and p.has_sim]


#: per-replication sample budget used by adaptive sampling: the
#: controller buys precision by adding replications, not by lengthening
#: individual runs, so each replication is deliberately short
ADAPTIVE_SAMPLES_PER_REPLICATION = 600


def budget_sim_config(
    *,
    seed: int,
    samples: int,
    multicast_samples: Optional[int] = None,
    warmup_cycles: float = 2_000,
) -> SimConfig:
    """The one sample-budget -> run-control path shared by the CLI, the
    grid driver and the studies: a single ``samples`` budget (measured
    unicast latencies) determines the run control, with the multicast
    target defaulting to a proportional share.

    The default warmup is the integer ``2_000`` the CLI has always
    passed: the value reaches ``SimTask.task_key()`` through JSON, where
    ``2000`` and ``2000.0`` hash differently -- keeping the historical
    type keeps existing cache entries addressable."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if multicast_samples is None:
        multicast_samples = max(60, samples // 6)
    return SimConfig(
        seed=seed,
        warmup_cycles=warmup_cycles,
        target_unicast_samples=samples,
        target_multicast_samples=multicast_samples,
    )


def default_sim_config(
    config: ExperimentConfig, *, per_replication: bool = False
) -> SimConfig:
    """The benchmark-grade run control used when none is supplied --
    deliberately small samples; validation tests use larger targets.
    ``per_replication=True`` returns the smaller per-replication budget
    used under adaptive sampling, where total samples at a point are
    ``replications x budget`` and the controller chooses the count."""
    if per_replication:
        return budget_sim_config(
            seed=config.seed,
            samples=ADAPTIVE_SAMPLES_PER_REPLICATION,
            multicast_samples=100,
            warmup_cycles=3_000.0,
        )
    return budget_sim_config(
        seed=config.seed,
        samples=2_000,
        multicast_samples=300,
        warmup_cycles=3_000.0,
    )


def model_series(
    config: ExperimentConfig, *, rates: Optional[list[float]] = None
) -> tuple[float, list[float], list[SweepPoint]]:
    """Evaluate both model recursions over the sweep: returns
    ``(saturation_rate, rates, points)`` with the sim fields unset."""
    topo, routing = config.build_network()
    return model_sweep(
        topo, routing, config.base_spec(routing),
        load_fractions=config.load_fractions, rates=rates,
    )


def model_sweep(
    topology: Topology,
    routing: RoutingAlgorithm,
    spec: TrafficSpec,
    *,
    load_fractions: Sequence[float],
    rates: Optional[Sequence[float]] = None,
    one_port: bool = False,
) -> tuple[float, list[float], list[SweepPoint]]:
    """Both model recursions over one sweep of ``spec``'s rate:
    ``(saturation_rate, rates, points)`` with the sim fields unset.

    The sweep is ``load_fractions`` of the occupancy recursion's
    saturation rate unless explicit ``rates`` are given.  The two models
    share the network's channel graph, so its routes compile once;
    ``one_port`` models a single injection channel per node.
    """
    model_paper = AnalyticalModel(topology, routing, one_port=one_port, recursion="paper")
    model_occ = AnalyticalModel(topology, routing, one_port=one_port, recursion="occupancy")
    sat = model_occ.saturation_rate(spec.with_rate(1e-6))
    sweep = list(rates) if rates is not None else [f * sat for f in load_fractions]
    points = []
    for rate in sweep:
        mp = model_paper.evaluate(spec.with_rate(rate))
        mo = model_occ.evaluate(spec.with_rate(rate))
        points.append(
            SweepPoint(
                rate=rate,
                model_paper_unicast=mp.unicast_latency,
                model_paper_multicast=mp.multicast_latency,
                model_occupancy_unicast=mo.unicast_latency,
                model_occupancy_multicast=mo.multicast_latency,
            )
        )
    return sat, sweep, points


def sweep_tasks(
    config: ExperimentConfig,
    rates: list[float],
    sim_config: SimConfig,
    *,
    derive_seeds: bool = False,
) -> list[SimTask]:
    """One :class:`SimTask` per offered-load point.

    ``derive_seeds=False`` (the historical behaviour) reuses
    ``sim_config.seed`` at every point -- common random numbers across
    the sweep; ``derive_seeds=True`` spawns an independent
    ``SeedSequence`` child seed per point.
    """
    seeds = (
        spawn_seeds(sim_config.seed, len(rates))
        if derive_seeds
        else [sim_config.seed] * len(rates)
    )
    return [
        SimTask(
            network="quarc",
            network_args=(config.num_nodes,),
            workload=config.destset_mode,
            group_size=config.group_size,
            workload_seed=config.seed,
            rim=config.rim,
            message_rate=rate,
            multicast_fraction=config.multicast_fraction,
            message_length=config.message_length,
            sim=dataclasses.replace(sim_config, seed=seed),
            label=f"{config.exp_id}#p{k}",
        )
        for k, (rate, seed) in enumerate(zip(rates, seeds))
    ]


def _check_rate_drift(
    nominal: float, measured: float, generated: int, saturated: bool, label: str
) -> None:
    """Warn when the measured injection rate is off the nominal one.

    The 1% floor is the contract; below ~160k generated messages the
    Poisson counting noise alone exceeds it, so the threshold widens to
    ``4 / sqrt(generated)`` (4 standard deviations of the count for a
    memoryless source -- burstier sources are noisier still, which makes
    a triggered warning *more* meaningful, not less).  Saturated runs
    are skipped: they end mid-backlog by design.
    """
    if saturated or generated <= 0 or not nominal > 0.0 or math.isnan(measured):
        return
    drift = (measured - nominal) / nominal
    tolerance = max(0.01, 4.0 / math.sqrt(generated))
    if abs(drift) > tolerance:
        warnings.warn(
            f"{label or 'sweep point'}: measured injection rate "
            f"{measured:.6g} deviates {drift:+.1%} from the nominal "
            f"{nominal:.6g} (tolerance {tolerance:.1%}) -- the source is "
            f"not delivering the configured load",
            RateDriftWarning,
            stacklevel=3,
        )


def apply_task_result(point: SweepPoint, result: TaskResult) -> SweepPoint:
    """Fill a sweep point's sim fields from a task result (in place)."""
    point.sim_unicast = result.unicast.mean
    point.sim_unicast_ci95 = result.unicast.ci95
    point.sim_multicast = result.multicast.mean
    point.sim_multicast_ci95 = result.multicast.ci95
    point.sim_saturated = result.saturated
    point.sim_deadlock_recoveries = result.deadlock_recoveries
    point.sim_samples_unicast = result.unicast.count
    point.sim_samples_multicast = result.multicast.count
    point.sim_replications = 1
    point.sim_stop_reason = ""
    point.offered_load = result.offered_load
    point.sim_fault_drops = result.fault_drops
    point.sim_monitors = result.monitors
    _check_rate_drift(
        result.nominal_load,
        result.offered_load,
        result.generated_messages,
        result.saturated,
        result.label,
    )
    return point


def apply_adaptive_point(point: SweepPoint, adaptive: AdaptivePoint) -> SweepPoint:
    """Fill a sweep point's sim fields from an adaptive point's pooled
    replications (in place).  The latency fields become the pooled
    Student-t interval over replication means; counters are summed."""
    point.sim_unicast, point.sim_unicast_ci95 = adaptive.pooled("unicast")
    point.sim_multicast, point.sim_multicast_ci95 = adaptive.pooled("multicast")
    point.sim_saturated = any(r.saturated for r in adaptive.results)
    point.sim_deadlock_recoveries = sum(
        r.deadlock_recoveries for r in adaptive.results
    )
    point.sim_samples_unicast = sum(r.unicast.count for r in adaptive.results)
    point.sim_samples_multicast = sum(r.multicast.count for r in adaptive.results)
    point.sim_replications = adaptive.replications
    point.sim_stop_reason = adaptive.decision.reason
    point.sim_fault_drops = sum(r.fault_drops for r in adaptive.results)
    # sim_monitors stays None: see the SweepPoint field note -- monitor
    # payloads are per-replication and have no defined pooling
    # pool the measured rate over replications, sim-time weighted; skip
    # results predating the stamp (NaN) and degenerate zero-time runs
    total_time = sum(
        r.sim_time for r in adaptive.results if not math.isnan(r.offered_load)
    )
    if total_time > 0.0:
        point.offered_load = (
            sum(
                r.offered_load * r.sim_time
                for r in adaptive.results
                if not math.isnan(r.offered_load)
            )
            / total_time
        )
        generated = sum(r.generated_messages for r in adaptive.results)
        first = adaptive.results[0]
        _check_rate_drift(
            first.nominal_load,
            point.offered_load,
            generated,
            point.sim_saturated,
            first.label,
        )
    return point


def run_experiment(
    config: ExperimentConfig,
    *,
    include_sim: bool = True,
    sim_config: Optional[SimConfig] = None,
    rates: Optional[list[float]] = None,
    executor: Optional[Executor] = None,
    cache: Optional[ResultStore] = None,
    derive_seeds: bool = False,
    adaptive: Optional[AdaptiveSettings] = None,
) -> ExperimentResult:
    """Produce the model/sim series of one figure panel.

    ``rates`` overrides the automatic sweep (fractions of the occupancy
    model's saturation rate).  ``sim_config`` tunes sample counts -- the
    benchmark defaults are deliberately small; validation tests use larger
    targets.  ``executor`` chooses where the simulations run (default:
    serially, in-process); ``cache`` skips already-computed points.  The
    resulting series is identical for any executor.

    ``adaptive`` (or ``config.adaptive``) switches the sweep to
    precision-driven sampling: every point runs independent replications
    in rounds until its pooled Student-t 95% half-width meets the
    settings' relative target (see :mod:`repro.sim.adaptive`);
    ``sim_config`` then holds the *per-replication* budget.
    """
    start = time.perf_counter()
    sat, sweep, points = model_series(config, rates=rates)
    result = ExperimentResult(config=config, saturation_rate=sat, points=points)
    adaptive = adaptive if adaptive is not None else config.adaptive

    if include_sim:
        scfg = sim_config or default_sim_config(
            config, per_replication=adaptive is not None
        )
        tasks = sweep_tasks(config, sweep, scfg, derive_seeds=derive_seeds)
        if adaptive is None:
            for point, tres in zip(
                points, run_tasks(tasks, executor=executor, cache=cache)
            ):
                apply_task_result(point, tres)
        else:
            for point, ap in zip(
                points,
                run_adaptive_tasks(
                    tasks, adaptive, executor=executor, cache=cache
                ),
            ):
                apply_adaptive_point(point, ap)

    result.wall_seconds = time.perf_counter() - start
    return result
