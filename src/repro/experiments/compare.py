"""Model-vs-simulation agreement metrics, for one sweep or a whole grid.

:func:`run_grid` is the executor-aware driver of the paper's full
evaluation: it enumerates the simulation tasks of *every* panel up
front, submits them through one shared executor (so a process pool stays
saturated across panel boundaries rather than draining at each panel's
tail), reassembles the per-panel series by task index, and scores both
model recursions against the simulator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ExperimentResult,
    apply_adaptive_point,
    apply_task_result,
    default_sim_config,
    model_series,
    sweep_tasks,
)
from repro.orchestration.executor import Executor, ResultStore, iter_task_results
from repro.orchestration.tasks import SimTask
from repro.sim.adaptive import AdaptiveSettings, run_adaptive_tasks
from repro.sim.network import SimConfig

__all__ = [
    "AgreementMetrics",
    "agreement_metrics",
    "GridPanel",
    "run_grid",
    "render_grid_summary",
    "DivergencePanel",
    "divergence_panels",
    "render_divergence_summary",
]


@dataclass(frozen=True)
class AgreementMetrics:
    """Percentage errors of a model variant against the simulator, over
    the non-saturated sweep points."""

    variant: str
    points_used: int
    unicast_mape: float  #: mean |model - sim| / sim (%)
    multicast_mape: float
    unicast_max_ape: float
    multicast_max_ape: float
    #: True when the model predicts infinite latency at a point the
    #: simulator still measures finite (conservative saturation)
    conservative_saturation: bool


def _ape(model: float, sim: float) -> float | None:
    if math.isnan(sim) or sim <= 0.0:
        return None
    if math.isinf(model):
        return None
    return abs(model - sim) / sim * 100.0


def agreement_metrics(result: ExperimentResult, variant: str) -> AgreementMetrics:
    """Compute agreement for ``variant`` in {"paper", "occupancy"}."""
    if variant not in ("paper", "occupancy"):
        raise ValueError(f"variant must be 'paper' or 'occupancy', got {variant!r}")
    uni_err: list[float] = []
    mc_err: list[float] = []
    conservative = False
    for p in result.finite_points():
        mu = getattr(p, f"model_{variant}_unicast")
        mm = getattr(p, f"model_{variant}_multicast")
        if math.isinf(mu) or math.isinf(mm):
            conservative = True
            continue
        e = _ape(mu, p.sim_unicast)
        if e is not None:
            uni_err.append(e)
        e = _ape(mm, p.sim_multicast)
        if e is not None:
            mc_err.append(e)
    return AgreementMetrics(
        variant=variant,
        points_used=len(uni_err),
        unicast_mape=sum(uni_err) / len(uni_err) if uni_err else math.nan,
        multicast_mape=sum(mc_err) / len(mc_err) if mc_err else math.nan,
        unicast_max_ape=max(uni_err) if uni_err else math.nan,
        multicast_max_ape=max(mc_err) if mc_err else math.nan,
        conservative_saturation=conservative,
    )


# ---------------------------------------------------------------------- #
# grid execution


@dataclass
class GridPanel:
    """One panel of a grid run: its series plus agreement scores."""

    result: ExperimentResult
    occupancy: Optional[AgreementMetrics] = None
    paper: Optional[AgreementMetrics] = None

    @property
    def config(self) -> ExperimentConfig:
        return self.result.config


def run_grid(
    configs: Sequence[ExperimentConfig],
    *,
    include_sim: bool = True,
    sim_config: Optional[SimConfig] = None,
    executor: Optional[Executor] = None,
    cache: Optional[ResultStore] = None,
    derive_seeds: bool = False,
    progress=None,
    adaptive: Optional[AdaptiveSettings] = None,
    on_round=None,
) -> list[GridPanel]:
    """Run many panels against one executor and score each.

    Panels stream through one submission: each panel's simulation tasks
    are handed to the executor the moment its model series (and therefore
    its sweep rates) is known, so pool workers crunch the first panel's
    points while the driver is still evaluating later panels' models --
    no idle model phase in front of the sweep.  ``sim_config`` applies to
    every panel (``None``: each panel's default run control);
    ``progress`` is an optional callback ``(done, total, task)`` invoked
    as results arrive.

    Each panel's ``result.wall_seconds`` is the *compute time attributed
    to that panel* -- model evaluation plus the summed duration of its
    freshly simulated tasks as measured inside the workers.  Under a
    parallel executor this exceeds elapsed time (N workers accrue N
    seconds per wall second); measure elapsed around this call if that
    is what you need.

    ``adaptive`` switches every panel to precision-driven sampling: the
    driver collects *every* panel's per-point base tasks up front and
    runs one shared round-synchronous controller over all of them (see
    :func:`repro.sim.adaptive.run_adaptive_tasks`), so each round's
    batch spans panel boundaries and keeps the executor saturated.
    ``on_round(round_index, submitted, still_running)`` reports round
    progress in that mode; ``progress`` is not called (the total task
    count is not known in advance).
    """
    configs = list(configs)
    if adaptive is None:
        # honour settings carried by the configs themselves (the same
        # fallback run_experiment applies); the shared controller runs
        # one settings object, so mixed intent must be resolved by the
        # caller rather than silently ignored
        carried = [c.adaptive for c in configs if c.adaptive is not None]
        if carried:
            if len(set(carried)) > 1 or len(carried) != len(configs):
                raise ValueError(
                    "configs carry non-uniform AdaptiveSettings; pass "
                    "adaptive= explicitly to run_grid"
                )
            adaptive = carried[0]
    panels: list[GridPanel] = []

    def build_panel(config: ExperimentConfig) -> tuple[GridPanel, list[float]]:
        start = time.perf_counter()
        sat, sweep, points = model_series(config)
        result = ExperimentResult(config=config, saturation_rate=sat, points=points)
        result.wall_seconds = time.perf_counter() - start
        panel = GridPanel(result=result)
        panels.append(panel)
        return panel, sweep

    if not include_sim:
        for config in configs:
            build_panel(config)
        return panels

    if adaptive is not None:
        # every panel's model series first (in-process; not cheap, see
        # the runner docstring), then one shared controller whose
        # round batches span every panel's still-running points
        base_tasks: list[SimTask] = []
        adaptive_owners: list[tuple[int, int]] = []
        for c_idx, config in enumerate(configs):
            _panel, sweep = build_panel(config)
            scfg = sim_config or default_sim_config(config, per_replication=True)
            for p_idx, task in enumerate(
                sweep_tasks(config, sweep, scfg, derive_seeds=derive_seeds)
            ):
                base_tasks.append(task)
                adaptive_owners.append((c_idx, p_idx))
        adaptive_points = run_adaptive_tasks(
            base_tasks, adaptive, executor=executor, cache=cache,
            on_round=on_round,
        )
        for (c_idx, p_idx), ap in zip(adaptive_owners, adaptive_points):
            panel = panels[c_idx]
            apply_adaptive_point(panel.result.points[p_idx], ap)
            panel.result.wall_seconds += sum(
                r.wall_seconds for r in ap.results if not r.cached
            )
        for panel in panels:
            panel.occupancy = agreement_metrics(panel.result, "occupancy")
            panel.paper = agreement_metrics(panel.result, "paper")
        return panels

    # every panel contributes one task per load fraction, so the total is
    # known before any model series is evaluated (for progress reporting)
    total = sum(len(c.load_fractions) for c in configs)
    all_tasks: list[SimTask] = []
    owners: list[tuple[int, int]] = []  #: flattened index -> (panel, point)

    def task_stream():
        for c_idx, config in enumerate(configs):
            _panel, sweep = build_panel(config)
            scfg = sim_config or default_sim_config(config)
            tasks = sweep_tasks(config, sweep, scfg, derive_seeds=derive_seeds)
            for p_idx, task in enumerate(tasks):
                all_tasks.append(task)
                owners.append((c_idx, p_idx))
                yield task

    done = 0
    for flat_idx, tres in iter_task_results(
        task_stream(), executor=executor, cache=cache
    ):
        c_idx, p_idx = owners[flat_idx]
        panel = panels[c_idx]
        apply_task_result(panel.result.points[p_idx], tres)
        if not tres.cached:  # cache hits cost ~nothing in this run
            panel.result.wall_seconds += tres.wall_seconds
        done += 1
        if progress is not None:
            progress(done, total, all_tasks[flat_idx])

    for panel in panels:
        panel.occupancy = agreement_metrics(panel.result, "occupancy")
        panel.paper = agreement_metrics(panel.result, "paper")
    return panels


# ---------------------------------------------------------------------- #
# traffic-scenario divergence study


@dataclass
class DivergencePanel:
    """One traffic scenario scored against both model recursions.

    ``result`` is a :class:`repro.traffic.scenarios.ScenarioResult`
    (duck-typed here: :func:`agreement_metrics` only needs
    ``finite_points()``, so scenario sweeps reuse the scoring machinery
    the paper panels use).  ``bias`` resolves the *sign* of the
    disagreement that MAPE hides: positive means the occupancy model
    over-predicts latency (CBR's sub-Poisson variance), negative means
    it under-predicts (bursty super-Poisson load) -- the direction is
    the physics of the divergence, not just its size.
    """

    result: object  #: ScenarioResult (duck-typed via finite_points())
    occupancy: AgreementMetrics
    paper: AgreementMetrics
    #: mean signed (model_occ - sim)/sim over finite points (%)
    bias: float
    #: points whose run recovered >= 1 deadlock -- past the M/G/1
    #: model's validity range (the model assumes no cyclic blocking;
    #: see :mod:`repro.sim.deadlock`), so their agreement numbers are
    #: flagged, not trusted
    recovered_points: int = 0

    @property
    def scenario(self):
        return self.result.scenario

    def verdict(self, threshold: float) -> str:
        """"agrees" / "over-predicts" / "under-predicts" at
        ``threshold`` percent mean error (occupancy recursion)."""
        mape = self.occupancy.unicast_mape
        if not math.isfinite(mape):
            return "no data"
        if mape <= threshold:
            return "agrees"
        return "over-predicts" if self.bias > 0.0 else "under-predicts"


def divergence_panels(results: Sequence) -> list[DivergencePanel]:
    """Score each scenario sweep against both model recursions."""
    panels: list[DivergencePanel] = []
    for result in results:
        signed: list[float] = []
        for p in result.finite_points():
            if math.isfinite(p.model_occupancy_unicast) and p.sim_unicast > 0.0:
                signed.append(
                    (p.model_occupancy_unicast - p.sim_unicast)
                    / p.sim_unicast
                    * 100.0
                )
        panels.append(
            DivergencePanel(
                result=result,
                occupancy=agreement_metrics(result, "occupancy"),
                paper=agreement_metrics(result, "paper"),
                bias=sum(signed) / len(signed) if signed else math.nan,
                recovered_points=sum(
                    1
                    for p in result.points
                    if p.has_sim and p.sim_deadlock_recoveries > 0
                ),
            )
        )
    return panels


def render_divergence_summary(
    results: Sequence, *, threshold: float = 10.0
) -> str:
    """The divergence study's headline table: one row per scenario, the
    M/G/1 model's error and its sign under each injection process.

    The Poisson control row is the calibration: its error is the noise
    floor of the comparison, and every non-Poisson row's excess over it
    is attributable to the broken timing assumption alone (destination
    skew is modelled, so hotspot rows isolate burstiness too).
    """
    panels = divergence_panels(results)
    lines = [
        f"{'scenario':18s} {'source':16s} {'sat.rate':>10s} {'pts':>4s} "
        f"{'occ.uni':>7s} {'occ.mc':>7s} {'pap.uni':>7s} {'bias':>8s}  verdict"
    ]
    flagged = False
    for panel in panels:
        r = panel.result
        occ, pap = panel.occupancy, panel.paper
        bias = (
            f"{panel.bias:+7.1f}%" if math.isfinite(panel.bias) else "      --"
        )
        mark = ""
        if panel.recovered_points:
            mark = f" †{panel.recovered_points}"
            flagged = True
        lines.append(
            f"{r.scenario.name:18s} {r.scenario.source.label:16s} "
            f"{r.saturation_rate:10.6f} {occ.points_used:4d} "
            f"{_fmt_pct(occ.unicast_mape)} {_fmt_pct(occ.multicast_mape)} "
            f"{_fmt_pct(pap.unicast_mape)} {bias}  "
            f"{panel.verdict(threshold)}{mark}"
        )
    lines.append(
        f"(verdict threshold: {threshold:.0f}% mean unicast error, "
        f"occupancy recursion)"
    )
    if flagged:
        lines.append(
            "(†N: N points recovered deadlocks -- past the model's "
            "validity range; their agreement numbers are reported but "
            "not trusted)"
        )
    return "\n".join(lines)


def _fmt_pct(x: float) -> str:
    return f"{x:6.1f}%" if math.isfinite(x) else "     --"


def render_grid_summary(panels: Sequence[GridPanel]) -> str:
    """One table row per panel: saturation rate, agreement, compute time
    (summed over workers -- not elapsed; cache hits count ~0)."""
    lines = [
        f"{'panel':24s} {'sat.rate':>10s} {'pts':>4s} "
        f"{'occ.uni':>7s} {'occ.mc':>7s} {'pap.uni':>7s} {'pap.mc':>7s} {'cpu':>8s}"
    ]
    for panel in panels:
        r = panel.result
        occ, pap = panel.occupancy, panel.paper
        lines.append(
            f"{r.config.exp_id:24s} {r.saturation_rate:10.6f} {len(r.points):4d} "
            + (_fmt_pct(occ.unicast_mape) if occ else "     --")
            + " "
            + (_fmt_pct(occ.multicast_mape) if occ else "     --")
            + " "
            + (_fmt_pct(pap.unicast_mape) if pap else "     --")
            + " "
            + (_fmt_pct(pap.multicast_mape) if pap else "     --")
            + f" {r.wall_seconds:7.1f}s"
        )
    total_wall = sum(p.result.wall_seconds for p in panels)
    lines.append(
        f"{'total fresh compute (summed over workers, not elapsed)':>56s}: "
        f"{total_wall:.1f}s"
    )
    return "\n".join(lines)
