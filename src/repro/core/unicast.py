"""Unicast latency (paper Eq. 7).

The latency of a worm is the sum of the waiting times its header incurs
along the path, plus the pipelined transfer of the message body::

    L = W_injection + sum_{network channels} (1 - feed) * W + msg + D + 1

* ``W_injection`` is the full M/G/1 waiting at the injection channel (the
  source queue -- a freshly generated message has no upstream channel, so
  no self-traffic discount applies),
* subsequent channels contribute their waiting discounted by the Eq. 6
  self-traffic factor (a Quarc ejection channel has a single feeder, so
  its discounted waiting is structurally zero),
* ``msg + D + 1`` is the zero-load component: with one cycle per channel
  traversal the header is absorbed after ``D + 2`` traversals (injection +
  ``D`` networks + ejection) and the tail trails it by ``msg - 1`` cycles,
  giving ``(D + 2) + (msg - 1) = msg + D + 1``.  (The paper writes
  ``msg + D``; the simulator's cycle bookkeeping fixes the constant at
  ``+1``, see ``tests/test_calibration.py``.)
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.core.channel_graph import ChannelGraph
from repro.core.flows import TrafficSpec
from repro.core.service import ServiceTimeResult

__all__ = ["path_waiting_time", "path_latency", "average_unicast_latency"]

#: zero-load latency constant: L0 = msg + D + LATENCY_CONSTANT
LATENCY_CONSTANT = 1.0


def path_waiting_time(result: ServiceTimeResult, channel_seq: Sequence[int]) -> float:
    """Total mean waiting (the paper's ``sum_l w_l``) along a channel
    sequence ``[injection, networks..., ejection]``."""
    if len(channel_seq) < 2:
        raise ValueError("a path needs at least injection + ejection channels")
    total = float(result.waiting[channel_seq[0]])
    for prev, ch in zip(channel_seq, channel_seq[1:]):
        total += result.discounted_waiting(prev, ch)
        if math.isinf(total):
            return math.inf
    return total


def path_latency(result: ServiceTimeResult, channel_seq: Sequence[int]) -> float:
    """Mean latency of a worm over ``channel_seq`` (Eq. 7, calibrated)."""
    hops = len(channel_seq) - 2  # network channels only
    waiting = path_waiting_time(result, channel_seq)
    return waiting + result.message_length + hops + LATENCY_CONSTANT


def average_unicast_latency(
    graph: ChannelGraph,
    result: ServiceTimeResult,
    spec: "TrafficSpec | None" = None,
) -> float:
    """Network-average unicast latency over all ordered (source, dest)
    pairs.  With no ``spec`` (or a uniform one) every pair weighs equally
    (the paper's averaging); under a weighted destination distribution
    each pair weighs by its generation probability, matching what the
    simulator's sample mean estimates.

    Reads the routes from the graph's route table; every sum runs in the
    order of a loop over the pairs (:func:`path_latency` per pair)."""
    table = graph.route_table(spec.multicast_sets if spec is not None else None)
    routes = table.unicast
    if spec is not None and spec.unicast_weights is not None:
        weights = spec.pair_probabilities(table)
    else:
        weights = np.ones(len(table.sources))
    waiting = routes.path_sums(result.waiting, result.discounted_waitings(table))
    hops = routes.lengths - 2  # network channels only
    latency = waiting + result.message_length + hops + LATENCY_CONSTANT
    used = weights != 0.0
    latency, weights = latency[used], weights[used]
    if np.isinf(latency).any():
        return math.inf
    return _sequential_sum(weights * latency) / _sequential_sum(weights)


def _sequential_sum(values: NDArray[np.float64]) -> float:
    """``values[0] + values[1] + ...`` left to right, the rounding of a
    Python loop (``np.sum`` adds pairwise and rounds differently)."""
    return np.cumsum(values)[-1] if len(values) else 0.0
