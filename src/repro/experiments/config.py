"""Experiment configurations for the paper's evaluation (Section 4).

The paper compares model and simulation "for numerous configurations by
changing the Quarc network size, message length and the rate of multicast
traffic": N in {16, 32, 64, 128}, M in {16, 32, 48, 64} flits, alpha in
{3%, 5%, 10%}, with multicast destination sets either random over all
quadrants (Figure 6) or localized on one rim (Figure 7).  The scanned
figures' panel labels are partly illegible, so we fix a documented,
representative panel per network size (and expose the full cartesian grid
for exhaustive runs); the validation target is the *shape* -- agreement
below saturation -- not the authors' exact panel selection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.core.flows import TrafficSpec
from repro.routing.quarc import QuarcRouting
from repro.sim.adaptive import AdaptiveSettings
from repro.topology.quarc import QuarcTopology
from repro.workloads.destsets import localized_multicast_sets, random_multicast_sets

__all__ = [
    "PAPER_NODE_SIZES",
    "PAPER_MESSAGE_LENGTHS",
    "PAPER_MULTICAST_FRACTIONS",
    "ExperimentConfig",
    "fig6_configs",
    "fig7_configs",
    "paper_grid",
]

PAPER_NODE_SIZES: tuple[int, ...] = (16, 32, 64, 128)
PAPER_MESSAGE_LENGTHS: tuple[int, ...] = (16, 32, 48, 64)
PAPER_MULTICAST_FRACTIONS: tuple[float, ...] = (0.03, 0.05, 0.10)


@dataclass(frozen=True)
class ExperimentConfig:
    """One figure panel: a latency-vs-rate series pair (model, sim)."""

    exp_id: str
    figure: str  #: "fig6" (random destinations) or "fig7" (localized)
    num_nodes: int
    message_length: int
    multicast_fraction: float
    group_size: int
    destset_mode: str  #: "random" or "localized"
    rim: str | None = None  #: localized sets: which rim (None = from seed)
    seed: int = 2009
    #: sweep points as fractions of the model's saturation rate
    load_fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    #: per-point sample policy: ``None`` keeps the historical flat budget
    #: (one fixed run per point); an :class:`~repro.sim.adaptive.
    #: AdaptiveSettings` runs CI-targeted replications per point instead,
    #: spending budget where the variance actually is
    adaptive: AdaptiveSettings | None = None

    def __post_init__(self) -> None:
        if self.destset_mode not in ("random", "localized"):
            raise ValueError(f"unknown destset_mode {self.destset_mode!r}")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")

    # ------------------------------------------------------------------ #
    def build_network(self) -> tuple[QuarcTopology, QuarcRouting]:
        topo = QuarcTopology(self.num_nodes)
        return topo, QuarcRouting(topo)

    def build_multicast_sets(self, routing: QuarcRouting) -> dict[int, frozenset[int]]:
        if self.destset_mode == "random":
            return random_multicast_sets(routing, self.group_size, self.seed)
        return localized_multicast_sets(
            routing, self.group_size, self.seed, rim=self.rim
        )

    def base_spec(self, routing: QuarcRouting) -> TrafficSpec:
        """Spec at rate 0 (the sweep sets the rate)."""
        return TrafficSpec(
            message_rate=0.0,
            multicast_fraction=self.multicast_fraction,
            message_length=self.message_length,
            multicast_sets=self.build_multicast_sets(routing),
        )

    def scaled(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)


def _mk(figure: str, n: int, m: int, alpha: float, group: int, mode: str, **kw) -> ExperimentConfig:
    tag = f"{figure}-N{n}-M{m}-a{int(round(alpha * 100)):02d}"
    return ExperimentConfig(
        exp_id=tag,
        figure=figure,
        num_nodes=n,
        message_length=m,
        multicast_fraction=alpha,
        group_size=group,
        destset_mode=mode,
        **kw,
    )


def fig6_configs(*, full_grid: bool = False) -> list[ExperimentConfig]:
    """Figure 6 panels: random multicast destination sets.

    The default is one representative panel per network size spanning the
    paper's message-length and alpha ranges; ``full_grid=True`` yields the
    full 4 x 4 x 3 cartesian product.
    """
    if full_grid:
        return [
            _mk("fig6", n, m, a, group=max(3, n // 4), mode="random")
            for n in PAPER_NODE_SIZES
            for m in PAPER_MESSAGE_LENGTHS
            for a in PAPER_MULTICAST_FRACTIONS
        ]
    return [
        _mk("fig6", 16, 32, 0.05, group=6, mode="random"),
        _mk("fig6", 32, 64, 0.05, group=8, mode="random"),
        _mk("fig6", 64, 32, 0.10, group=12, mode="random"),
        _mk("fig6", 128, 16, 0.03, group=16, mode="random"),
    ]


def fig7_configs(*, full_grid: bool = False) -> list[ExperimentConfig]:
    """Figure 7 panels: localized (same-rim) multicast destination sets."""
    if full_grid:
        return [
            _mk("fig7", n, m, a, group=max(2, n // 8), mode="localized", rim="L")
            for n in PAPER_NODE_SIZES
            for m in PAPER_MESSAGE_LENGTHS
            for a in PAPER_MULTICAST_FRACTIONS
        ]
    return [
        _mk("fig7", 16, 32, 0.05, group=3, mode="localized", rim="L"),
        _mk("fig7", 32, 64, 0.05, group=4, mode="localized", rim="R"),
        _mk("fig7", 64, 32, 0.10, group=6, mode="localized", rim="CR"),
        _mk("fig7", 128, 16, 0.03, group=8, mode="localized", rim="CL"),
    ]


def paper_grid(*, full_grid: bool = False) -> Iterator[ExperimentConfig]:
    yield from fig6_configs(full_grid=full_grid)
    yield from fig7_configs(full_grid=full_grid)
