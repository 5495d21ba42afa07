"""Multicast latency (paper Eq. 8 and 13-16).

For a multicast from node ``j`` the source transceiver emits one worm per
injection port whose quadrant contains targets.  The worms proceed with no
synchronisation; the multicast completes when the *last* worm delivers its
last flit.  The paper's construction:

1. the total waiting time of the port-``c`` worm is associated with an
   exponential random variable of rate ``mu_{j,c} = 1 / sum_l w_l``
   (Eq. 8),
2. the multicast waiting time is ``E[max]`` of the per-port exponentials
   (Eq. 13, computed by the Eq. 12 recursion),
3. ``L_j = W_j + msg + D_j`` with ``D_j = max_c D_{j,c}`` (Eq. 14-15), and
4. the network multicast latency averages ``L_j`` over nodes (Eq. 16).

Ports with several worms (a one-port router, the Spidergon's software
multicast, or column-path multicast on a mesh) serialise in the port
queue; we extend the model by charging the k-th worm of a port the
injection-channel service of its k-1 predecessors, then associating one
exponential per *worm*.  For the Quarc (one worm per port) this reduces
exactly to the paper.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.channel_graph import ChannelGraph
from repro.core.expmax import expected_max_exponentials
from repro.core.service import ServiceTimeResult
from repro.core.unicast import LATENCY_CONSTANT, path_waiting_time
from repro.routing.base import MulticastRoute

__all__ = [
    "multicast_waiting_rates",
    "multicast_latency_at_node",
    "multicast_latency_naive",
    "average_multicast_latency",
]


def _worm_waitings(
    graph: ChannelGraph,
    result: ServiceTimeResult,
    routes: Sequence[MulticastRoute],
) -> list[tuple[float, int]]:
    """Per-worm (total waiting, hops) with port-serialisation charges."""
    per_channel_count: dict[int, int] = {}
    out: list[tuple[float, int]] = []
    for route in routes:
        seq = graph.multicast_worm_channels(route)
        waiting = path_waiting_time(result, seq)
        # key by the actual injection channel: under a one-port router all
        # named ports collapse onto one physical injection channel
        k = per_channel_count.get(seq[0], 0)
        if k > 0:
            # serialised behind k earlier worms of the same multicast on
            # this channel: each occupies the injection channel for its
            # mean service time before this worm's header can enter
            waiting += k * float(result.mean_service[seq[0]])
        per_channel_count[seq[0]] = k + 1
        out.append((waiting, route.hops))
    return out


def _rate(waiting: float) -> float:
    """``mu`` of Eq. 8 for one worm's total waiting."""
    if waiting <= 0.0:
        return math.inf
    if math.isinf(waiting):
        return 0.0  # saturated worm: E[max] = inf
    return 1.0 / waiting


def _node_latency(
    waitings: Sequence[float], hops: Sequence[int], message_length: int, method: str
) -> float:
    """``L_j`` (Eq. 14) from the node's per-worm waitings and hops."""
    w_j = expected_max_exponentials([_rate(w) for w in waitings], method=method)
    return w_j + message_length + max(hops) + LATENCY_CONSTANT


def multicast_waiting_rates(
    graph: ChannelGraph,
    result: ServiceTimeResult,
    routes: Sequence[MulticastRoute],
) -> list[float]:
    """The exponential rates ``mu_{j,c}`` (Eq. 8): reciprocal total
    waiting per worm.  A worm that never waits maps to an infinite rate
    (it contributes zero to the maximum)."""
    return [_rate(waiting) for waiting, _hops in _worm_waitings(graph, result, routes)]


def multicast_latency_at_node(
    graph: ChannelGraph,
    result: ServiceTimeResult,
    routes: Sequence[MulticastRoute],
    *,
    method: str = "recursive",
) -> float:
    """``L_j`` (Eq. 14): expected-max waiting + message + max hops."""
    if not routes:
        raise ValueError("multicast needs at least one port worm")
    worms = _worm_waitings(graph, result, routes)
    return _node_latency(
        [w for w, _ in worms], [h for _, h in worms], result.message_length, method
    )


def multicast_latency_naive(
    graph: ChannelGraph,
    result: ServiceTimeResult,
    routes: Sequence[MulticastRoute],
) -> float:
    """The "largest sub-network" estimate the paper argues *against*
    (Section 2): take the latency of the worm serving the largest quadrant
    and ignore the other ports.  Kept as the A-expmax ablation baseline --
    it systematically underestimates the multicast latency because any of
    the m asynchronous worms can finish last."""
    if not routes:
        raise ValueError("multicast needs at least one port worm")
    worms = _worm_waitings(graph, result, routes)
    largest = max(range(len(routes)), key=lambda i: len(routes[i].targets))
    waiting, _ = worms[largest]
    d_j = max(hops for _w, hops in worms)
    return waiting + result.message_length + d_j + LATENCY_CONSTANT


def average_multicast_latency(
    graph: ChannelGraph,
    result: ServiceTimeResult,
    multicast_sets: Mapping[int, frozenset[int]],
    *,
    method: str = "recursive",
) -> float:
    """Network-average multicast latency (Eq. 16) over the sources that
    actually multicast (sources with empty sets offer no multicast and are
    excluded from the average, matching the simulator's sampling).

    Reads every source's worms from the graph's route table; each worm's
    waiting sums as :func:`_worm_waitings` would."""
    table = graph.route_table(multicast_sets)
    if not table.mc_sources:
        raise ValueError("no node has a non-empty multicast destination set")
    worms = table.multicast
    waiting = worms.path_sums(result.waiting, result.discounted_waitings(table))
    # serialised behind k earlier worms of the same multicast on the
    # injection channel (see _worm_waitings)
    serial = table.mc_serial
    with np.errstate(invalid="ignore"):
        charge = serial * result.mean_service[worms.first]
    waiting = np.where(serial > 0, waiting + charge, waiting).tolist()
    hops = (worms.lengths - 2).tolist()
    total = 0.0
    groups = table.mc_groups
    for lo, hi in zip(groups, groups[1:]):
        lat = _node_latency(waiting[lo:hi], hops[lo:hi], result.message_length, method)
        if math.isinf(lat):
            return math.inf
        total += lat
    return total / len(table.mc_sources)
