"""The :class:`AnalyticalModel` facade: one call from traffic spec to
predicted latencies, plus saturation-rate search and rate sweeps.

Typical use::

    from repro.topology import QuarcTopology
    from repro.routing import QuarcRouting
    from repro.core import AnalyticalModel, TrafficSpec
    from repro.workloads import random_multicast_sets

    topo = QuarcTopology(16)
    model = AnalyticalModel(topo, QuarcRouting(topo))
    spec = TrafficSpec(
        message_rate=0.01, multicast_fraction=0.05, message_length=32,
        multicast_sets=random_multicast_sets(topo, group_size=6, seed=7),
    )
    print(model.evaluate(spec).multicast_latency)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.channel_graph import shared_channel_graph
from repro.core.flows import TrafficSpec, build_flows
from repro.core.multicast import average_multicast_latency, multicast_latency_naive
from repro.core.service import ServiceTimeResult, solve_service_times
from repro.core.unicast import average_unicast_latency
from repro.routing.base import RoutingAlgorithm
from repro.topology.base import Topology

__all__ = ["ModelResult", "AnalyticalModel"]


@dataclass
class ModelResult:
    """Predictions for one traffic spec."""

    spec: TrafficSpec
    unicast_latency: float  #: network-average unicast latency (cycles)
    multicast_latency: float  #: network-average multicast latency (cycles)
    max_utilization: float  #: bottleneck channel rho
    bottleneck_channel: str
    saturated: bool
    converged: bool
    iterations: int
    service: ServiceTimeResult

    @property
    def finite(self) -> bool:
        return math.isfinite(self.multicast_latency) and math.isfinite(
            self.unicast_latency
        )


class AnalyticalModel:
    """The paper's analytical model bound to one (topology, routing).

    Parameters
    ----------
    one_port:
        Model a one-port router (single injection channel per node); the
        ablation baseline for the paper's all-port architecture.
    recursion:
        Service-time recursion variant: ``"paper"`` (Eq. 6 verbatim) or
        ``"occupancy"`` (exact channel occupancy; see
        :mod:`repro.core.service`).
    expmax_method:
        ``"recursive"`` (paper Eq. 12) or ``"inclusion-exclusion"``.
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        *,
        one_port: bool = False,
        recursion: str = "paper",
        expmax_method: str = "recursive",
    ):
        self.topology = topology
        self.routing = routing
        # models of one network share its graph and compiled route tables
        self.graph = shared_channel_graph(topology, routing, one_port)
        self.recursion = recursion
        self.expmax_method = expmax_method

    # ------------------------------------------------------------------ #
    def solve(self, spec: TrafficSpec) -> ServiceTimeResult:
        """Run the Eq. 6 fixed point for ``spec``."""
        flows = build_flows(self.graph, spec)
        return solve_service_times(
            self.graph, flows, spec.message_length, recursion=self.recursion
        )

    def evaluate(self, spec: TrafficSpec) -> ModelResult:
        """Predict average unicast and multicast latency for ``spec``."""
        service = self.solve(spec)
        if service.saturated:
            unicast = multicast = math.inf
        else:
            unicast = average_unicast_latency(self.graph, service, spec)
            if spec.multicast_sets and spec.multicast_fraction > 0.0:
                multicast = average_multicast_latency(
                    self.graph,
                    service,
                    spec.multicast_sets,
                    method=self.expmax_method,
                )
            else:
                multicast = math.nan
        bname, brho = service.bottleneck()
        return ModelResult(
            spec=spec,
            unicast_latency=unicast,
            multicast_latency=multicast,
            max_utilization=brho,
            bottleneck_channel=bname,
            saturated=service.saturated,
            converged=service.converged,
            iterations=service.iterations,
            service=service,
        )

    def evaluate_naive_multicast(self, spec: TrafficSpec) -> float:
        """Average multicast latency under the "largest sub-network"
        estimate (the baseline the paper's Section 2 argues against)."""
        service = self.solve(spec)
        if service.saturated:
            return math.inf
        total = 0.0
        count = 0
        for node, dests in sorted(spec.multicast_sets.items()):
            if not dests:
                continue
            routes = self.routing.multicast_routes(node, sorted(dests))
            total += multicast_latency_naive(self.graph, service, routes)
            count += 1
        if count == 0:
            raise ValueError("spec has no multicast sources")
        return total / count

    # ------------------------------------------------------------------ #
    def sweep(self, spec: TrafficSpec, rates: Sequence[float]) -> list[ModelResult]:
        """Evaluate the model across offered loads (one figure series)."""
        return [self.evaluate(spec.with_rate(r)) for r in rates]

    def saturation_rate(
        self,
        spec: TrafficSpec,
        *,
        lo: float = 0.0,
        hi: Optional[float] = None,
        tol: float = 1e-6,
        max_iter: int = 60,
    ) -> float:
        """Largest per-node message rate the model deems stable (bisection
        on the saturation flag of the Eq. 6 fixed point; no latencies)."""
        if hi is None:
            # a generous upper bound: one message per message-length cycles
            hi = 4.0 / spec.message_length
        if not self.solve(spec.with_rate(hi)).saturated:
            return hi
        lo_r, hi_r = lo, hi
        for _ in range(max_iter):
            mid = 0.5 * (lo_r + hi_r)
            if self.solve(spec.with_rate(mid)).saturated:
                hi_r = mid
            else:
                lo_r = mid
            if hi_r - lo_r < tol:
                break
        return lo_r
