"""Per-channel traffic rates and forwarding structure (model inputs).

Accumulates every unicast source/destination pair and every multicast
worm of a :class:`TrafficSpec` -- read from the graph's compiled
:class:`~repro.core.channel_graph.RouteTable` -- into, per channel,

* the arrival rate ``lambda_i`` (messages/cycle),
* the *forward* transition rates ``i -> j`` (the worm's own progression,
  which Eq. 6 weights its service-time recursion with), and
* the *feed* rates ``i -> j`` (all traffic entering ``j`` that funnelled
  through ``i`` -- forward transitions plus absorb-and-forward clones into
  ejection channels), which the self-traffic discount factor
  ``(1 - lambda_i P_{i->j} / lambda_j)`` of Eq. 6 uses.

The distinction matters exactly for Quarc-style dedicated per-input-port
ejection channels: a multicast clone entering an ejection channel funnels
through the worm's network channel, so a message following on the same
input never actually queues behind it -- the feed fraction is 1 and the
discount zeroes the ejection waiting, matching the simulator's structural
freedom from ejection blocking.

Every sum is sequential, in the order a walk over the worms would add
its terms (unicast routes ``s``-major, then multicast worms by source,
each worm's clones after its own channels): ``np.bincount`` and
``np.add.at`` add in index order, so the rates are bit-identical to that
walk.

Model assumptions (paper Section 2): Poisson generation, uniformly random
unicast destinations, all messages the same length, deterministic routing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from repro.core.channel_graph import ChannelGraph, ChannelKind, RouteTable

__all__ = ["TrafficSpec", "FlowAccumulator", "build_flows"]

#: first-use position of a channel pair no worm carrying traffic forwards over
_NEVER = np.iinfo(np.int64).max


@dataclass(frozen=True)
class TrafficSpec:
    """Offered traffic for one model/simulation configuration.

    Attributes
    ----------
    message_rate:
        Total message generation rate per node, ``lambda_g`` (msgs/cycle).
        Unicast and multicast are independent Poisson processes with rates
        ``(1 - alpha) * lambda_g`` and ``alpha * lambda_g``.
    multicast_fraction:
        ``alpha``: the rate of multicast traffic (paper: 3%, 5% or 10%).
    message_length:
        ``M``: message length in flits; the paper uses 16..64 and assumes
        messages longer than the network diameter.
    multicast_sets:
        Per-source multicast destination sets, fixed for the whole run
        (paper Section 4: selected once at the start).  Sources absent from
        the mapping (or mapped to an empty set) generate no multicast
        traffic; their multicast rate share is simply not offered.
    unicast_weights:
        Optional per-destination weight vector (length N).  None means the
        paper's uniform destinations; see
        :mod:`repro.workloads.patterns` for hotspot patterns.  A source's
        own weight is ignored (self-traffic is impossible).
    """

    message_rate: float
    multicast_fraction: float
    message_length: int
    multicast_sets: Mapping[int, frozenset[int]] = field(default_factory=dict)
    unicast_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.message_rate < 0.0:
            raise ValueError(f"message_rate must be >= 0, got {self.message_rate}")
        if not 0.0 <= self.multicast_fraction <= 1.0:
            raise ValueError(
                f"multicast_fraction must be in [0, 1], got {self.multicast_fraction}"
            )
        if self.message_length < 1:
            raise ValueError(f"message_length must be >= 1, got {self.message_length}")
        for src, dests in self.multicast_sets.items():
            if src in dests:
                raise ValueError(f"node {src} multicasts to itself")
        if self.unicast_weights is not None:
            if any(w < 0.0 for w in self.unicast_weights):
                raise ValueError("unicast_weights must be >= 0")
            if sum(self.unicast_weights) <= 0.0:
                raise ValueError("unicast_weights must have positive mass")

    @property
    def unicast_rate(self) -> float:
        """Per-node unicast generation rate ``(1 - alpha) * lambda_g``."""
        return (1.0 - self.multicast_fraction) * self.message_rate

    @property
    def multicast_rate(self) -> float:
        """Per-node multicast generation rate ``alpha * lambda_g``."""
        return self.multicast_fraction * self.message_rate

    def with_rate(self, message_rate: float) -> "TrafficSpec":
        """A copy at a different offered load (for rate sweeps)."""
        return TrafficSpec(
            message_rate=message_rate,
            multicast_fraction=self.multicast_fraction,
            message_length=self.message_length,
            multicast_sets=self.multicast_sets,
            unicast_weights=self.unicast_weights,
        )

    def destination_probabilities(self, source: int, num_nodes: int) -> NDArray[np.float64]:
        """Per-destination probability vector for ``source`` (numpy array
        of length ``num_nodes``; the source's own entry is 0)."""
        from repro.workloads.patterns import normalized_probabilities, uniform_weights

        weights = self.unicast_weights
        if weights is None:
            weights = uniform_weights(num_nodes)
        elif len(weights) != num_nodes:
            raise ValueError(
                f"unicast_weights has length {len(weights)}, network has "
                f"{num_nodes} nodes"
            )
        return normalized_probabilities(weights, source)

    def pair_probabilities(self, table: RouteTable) -> NDArray[np.float64]:
        """:meth:`destination_probabilities` of every unicast route of
        ``table`` (source ``table.sources[k]`` to ``table.dests[k]``)."""
        n = table.num_nodes
        probs = np.array([self.destination_probabilities(s, n) for s in range(n)])
        return np.asarray(probs[table.sources, table.dests], dtype=np.float64)


class FlowAccumulator:
    """Per-channel rates and channel-pair transitions of one spec.

    ``unicast_rates[k]`` is the rate of the unicast route ``k`` of
    ``table`` and ``multicast_rate`` that of every multicast worm; a worm
    at rate zero carries nothing and is skipped.  Besides the read API
    (:attr:`arrival_rate`, :meth:`forward_probabilities`, :attr:`feed`,
    :meth:`feed_fraction`, :meth:`total_offered`) the accumulator holds
    the arrays the model runs on: per channel pair of ``table`` the feed
    rate and the Eq. 6 discount ``1 - feed fraction`` (``pair_*``), and
    the forward transitions as edges (``edge_*``), ordered by source
    channel, then by first use -- the order the service-time recursion
    sums them in.
    """

    def __init__(
        self,
        graph: ChannelGraph,
        table: RouteTable,
        unicast_rates: NDArray[np.float64],
        multicast_rate: float,
    ) -> None:
        if np.any(unicast_rates < 0.0) or multicast_rate < 0.0:
            raise ValueError("worm rates must be >= 0")
        self.graph = graph
        self.table = table
        n = graph.num_channels
        uni, mc = table.unicast, table.multicast
        hop_rates = np.repeat(unicast_rates, uni.lengths)
        pair_rates = np.repeat(unicast_rates, uni.lengths - 1)
        arrival = np.bincount(uni.channels, weights=hop_rates, minlength=n)
        forward = np.bincount(uni.pairs, weights=pair_rates, minlength=table.num_pairs)
        feed = forward.copy()
        multicast_active = multicast_rate > 0.0 and mc.num_worms > 0
        if multicast_active:
            np.add.at(arrival, table.mc_arrivals, multicast_rate)
            np.add.at(forward, mc.pairs, multicast_rate)
            np.add.at(feed, table.mc_feeds, multicast_rate)
        self.arrival_rate: NDArray[np.float64] = np.asarray(arrival, dtype=np.float64)
        self.pair_feed: NDArray[np.float64] = np.asarray(feed, dtype=np.float64)
        self.pair_discount = _discount(self.pair_feed, self.arrival_rate[table.pair_dst])

        # forward edges in the order the recursion sums them: by source
        # channel, then by first use in the accumulation order above,
        # among the worms that carry traffic
        first = np.full(table.num_pairs, _NEVER, dtype=np.int64)
        hops = np.flatnonzero(pair_rates != 0.0)
        np.minimum.at(first, uni.pairs[hops], hops)
        if multicast_active:
            np.minimum.at(first, mc.pairs, len(uni.pairs) + np.arange(len(mc.pairs)))
        used = np.flatnonzero(first != _NEVER)
        edges = used[np.lexsort((first[used], table.pair_src[used]))]
        self.edge_src: NDArray[np.int32] = table.pair_src[edges]
        self.edge_dst: NDArray[np.int32] = table.pair_dst[edges]
        edge_rate = np.asarray(forward[edges], dtype=np.float64)
        # sequential per source channel, in edge order
        total = np.bincount(self.edge_src, weights=edge_rate, minlength=n)
        self.edge_prob: NDArray[np.float64] = edge_rate / total[self.edge_src]
        self.edge_discount: NDArray[np.float64] = self.pair_discount[edges]
        self._feed: list[dict[int, float]] | None = None

    # ------------------------------------------------------------------ #
    @property
    def feed(self) -> list[dict[int, float]]:
        """``feed[i][j]``: the rate entering ``j`` that funnelled through
        ``i`` (forward transitions plus absorb-and-forward clones)."""
        if self._feed is None:
            rows: list[dict[int, float]] = [{} for _ in range(self.graph.num_channels)]
            pairs = zip(self.table.pair_src.tolist(), self.table.pair_dst.tolist())
            for (i, j), rate in zip(pairs, self.pair_feed.tolist()):
                if rate > 0.0:
                    rows[i][j] = rate
            self._feed = rows
        return self._feed

    def forward_probabilities(self, idx: int) -> dict[int, float]:
        """``P_{i->j}`` normalised over the worm-progression transitions."""
        lo, hi = np.searchsorted(self.edge_src, [idx, idx + 1])
        return dict(zip(self.edge_dst[lo:hi].tolist(), self.edge_prob[lo:hi].tolist()))

    def feed_fraction(self, idx: int, nxt: int) -> float:
        """Fraction of ``nxt``'s arrivals that funnel through ``idx``
        (the ``lambda_i P_{i->j} / lambda_j`` of Eq. 6)."""
        lam_next = self.arrival_rate[nxt]
        if lam_next <= 0.0:
            return 0.0
        frac = self.feed[idx].get(nxt, 0.0) / lam_next
        # floating accumulation can overshoot 1 by an ulp
        return min(frac, 1.0)

    def discounts(self, table: RouteTable) -> NDArray[np.float64]:
        """``1 - feed_fraction`` for every channel pair of ``table``."""
        if table is self.table:
            return self.pair_discount
        # another table of the network: find its pairs among ours
        n = self.graph.num_channels
        ours = self.table.pair_src.astype(np.int64) * n + self.table.pair_dst
        order = np.argsort(ours)
        keys = table.pair_src.astype(np.int64) * n + table.pair_dst
        pos = np.minimum(np.searchsorted(ours[order], keys), len(ours) - 1)
        hit = ours[order[pos]] == keys
        feed = np.where(hit, self.pair_feed[order[pos]], 0.0)
        return _discount(feed, self.arrival_rate[table.pair_dst])

    def total_offered(self) -> float:
        """Sum of injection-channel arrival rates (sanity metric)."""
        inj = self.graph.indices_of_kind(ChannelKind.INJECTION)
        return float(self.arrival_rate[inj].sum())


def _discount(feed: NDArray[np.float64], lam_next: NDArray[np.float64]) -> NDArray[np.float64]:
    """Vectorised ``1 - feed_fraction``: ``feed / lambda_next`` capped at
    1, or 0 where the next channel carries nothing."""
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(lam_next > 0.0, np.minimum(feed / lam_next, 1.0), 0.0)
    return np.asarray(1.0 - frac, dtype=np.float64)


def build_flows(graph: ChannelGraph, spec: TrafficSpec) -> FlowAccumulator:
    """Accumulate all unicast and multicast flows of ``spec`` over ``graph``.

    Unicast: every ordered pair ``(s, t)`` carries ``lambda_u / (N - 1)``.
    Multicast: every source with a non-empty destination set emits one worm
    per used port at rate ``lambda_m`` (paper: a multicast is *replicated*
    on each port whose quadrant contains targets, so each worm has the full
    multicast generation rate).
    """
    table = graph.route_table(spec.multicast_sets)
    rates = np.zeros(len(table.sources))
    if spec.unicast_rate > 0.0:
        probs = spec.pair_probabilities(table)
        # a pair of probability zero carries nothing, whatever the rate
        rates = np.where(probs == 0.0, 0.0, spec.unicast_rate * probs)
    return FlowAccumulator(graph, table, rates, spec.multicast_rate)
