"""The channel dependency graph the queueing model operates on.

The analytical model views the NoC as a network of M/G/1 queues -- one per
*channel*.  Channels come in three kinds (paper Section 2, Fig. 1):

* **injection** channels: the internal links from a PE into its router, one
  per port in an all-port architecture (``("inj", node, port)``),
* **network** channels: the directed physical links between routers
  (``("net", src, dst, tag)``),
* **ejection** channels: the internal links from a router into the local
  sink, one per input direction in an all-port architecture
  (``("ej", node, input_tag)``).

The graph assigns every channel a dense integer index so the fixed-point
solver can vectorise over numpy arrays, and translates
:class:`~repro.routing.base.Route` objects into channel index sequences.

The analytical model evaluates the same routes at every offered load, so
:meth:`ChannelGraph.route_table` walks them once -- every unicast route
and each source's multicast worms for one destination-set mapping -- and
keeps the channel sequences as flat int32 arrays (:class:`RouteTable`).
An evaluation is then a few numpy passes over the table.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.routing.base import MulticastRoute, Route, RoutingAlgorithm
from repro.topology.base import Link, Topology

__all__ = [
    "ChannelKind",
    "Channel",
    "ChannelGraph",
    "ONE_PORT_NAME",
    "RouteTable",
    "WormTable",
    "shared_channel_graph",
]

#: Port name used for every route when collapsing to a one-port router.
ONE_PORT_NAME = "P0"


class ChannelKind(Enum):
    INJECTION = "inj"
    NETWORK = "net"
    EJECTION = "ej"


@dataclass(frozen=True)
class Channel:
    """A channel identity.  ``key`` disambiguates within the kind:

    * injection: ``(node, port)``
    * network:   ``(src, dst, tag)``
    * ejection:  ``(node, input_tag)``
    """

    kind: ChannelKind
    key: tuple

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}{self.key}"


class ChannelGraph:
    """Dense-indexed channel set for a (topology, routing) pair.

    Parameters
    ----------
    topology, routing:
        The network under model.
    one_port:
        When True, model a one-port router: all injection traffic of a node
        shares a single injection channel (and routes' ports are remapped
        to it).  Ejection channels stay per-input-tag; the one-port
        *ejection* bottleneck is modelled separately because the paper's
        baseline contrast is about injection (Section 3.1 discusses
        blocking "on occupied injection channel").
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        *,
        one_port: bool = False,
    ):
        self.topology = topology
        self.routing = routing
        self.one_port = one_port
        self._channels: list[Channel] = []
        # one index per kind, keyed by Channel.key: lookups hash a plain
        # tuple, not a Channel
        self._index: dict[ChannelKind, dict[tuple, int]] = {k: {} for k in ChannelKind}
        self._build()
        #: compiled route tables, keyed by destination-set content
        self._tables: dict[tuple[tuple[int, tuple[int, ...]], ...], RouteTable] = {}

    # ------------------------------------------------------------------ #
    def _add(self, channel: Channel) -> int:
        index = self._index[channel.kind]
        if channel.key in index:
            raise ValueError(f"duplicate channel {channel}")
        idx = len(self._channels)
        self._channels.append(channel)
        index[channel.key] = idx
        return idx

    def _lookup(self, kind: ChannelKind, key: tuple) -> int:
        try:
            return self._index[kind][key]
        except KeyError:
            raise KeyError(f"unknown channel {Channel(kind, key)}") from None

    def _build(self) -> None:
        topo = self.topology
        ports = [ONE_PORT_NAME] if self.one_port else list(topo.injection_ports())
        for node in topo.nodes():
            for port in ports:
                self._add(Channel(ChannelKind.INJECTION, (node, port)))
        for link in topo.links():
            self._add(Channel(ChannelKind.NETWORK, (link.src, link.dst, link.tag)))
        for node in topo.nodes():
            for tag in topo.input_tags(node):
                self._add(Channel(ChannelKind.EJECTION, (node, tag)))

    # ------------------------------------------------------------------ #
    @property
    def num_channels(self) -> int:
        return len(self._channels)

    def channels(self) -> Sequence[Channel]:
        return list(self._channels)

    def index_of(self, channel: Channel) -> int:
        return self._lookup(channel.kind, channel.key)

    def channel_at(self, idx: int) -> Channel:
        return self._channels[idx]

    def kind_of(self, idx: int) -> ChannelKind:
        return self._channels[idx].kind

    # -- lookups ---------------------------------------------------------
    def injection(self, node: int, port: str) -> int:
        if self.one_port:
            port = ONE_PORT_NAME
        return self._lookup(ChannelKind.INJECTION, (node, port))

    def network(self, link: Link) -> int:
        return self._lookup(ChannelKind.NETWORK, (link.src, link.dst, link.tag))

    def ejection(self, node: int, input_tag: str) -> int:
        return self._lookup(ChannelKind.EJECTION, (node, input_tag))

    # -- route translation -------------------------------------------------
    def route_channels(self, route: Route) -> list[int]:
        """Channel index sequence of a unicast worm:
        ``[injection, network..., ejection-at-destination]``."""
        seq = [self.injection(route.source, route.port)]
        seq.extend(map(self.network, route.links))
        seq.append(self.ejection(route.dest, route.links[-1].tag))
        return seq

    def multicast_worm_channels(self, route: MulticastRoute) -> list[int]:
        """Channels *held* by a multicast worm: injection + network links +
        the terminal ejection (at the last node, which is always a target)."""
        seq = [self.injection(route.source, route.port)]
        seq.extend(map(self.network, route.links))
        seq.append(self.ejection(route.last_node, route.links[-1].tag))
        return seq

    def multicast_clone_ejections(self, route: MulticastRoute) -> list[tuple[int, int]]:
        """``(network_channel, ejection_channel)`` pairs for every
        *intermediate* target the worm absorb-and-forwards to (the terminal
        target's ejection is part of the worm path instead)."""
        out: list[tuple[int, int]] = []
        for link in route.links:
            node = link.dst
            if node in route.targets and node != route.last_node:
                out.append((self.network(link), self.ejection(node, link.tag)))
        return out

    def route_table(
        self, multicast_sets: Optional[Mapping[int, frozenset[int]]] = None
    ) -> RouteTable:
        """Every unicast route, plus each source's multicast worms for
        ``multicast_sets``, compiled once and cached by the sets' content.
        Tables of one graph share their unicast arrays."""
        key = tuple(
            (s, tuple(sorted(d))) for s, d in sorted((multicast_sets or {}).items()) if d
        )
        table = self._tables.get(key)
        if table is None:
            base = self._tables.get(()) if key else None
            if key and base is None:
                base = self.route_table()
            if len(self._tables) > _MAX_TABLES:
                # keep the unicast-only table; drop the oldest set mapping
                del self._tables[next(k for k in self._tables if k)]
            table = self._tables[key] = RouteTable(self, key, base)
        return table

    # -- reporting ---------------------------------------------------------
    def describe(self, idx: int) -> str:
        return str(self._channels[idx])

    def indices_of_kind(self, kind: ChannelKind) -> list[int]:
        return [i for i, c in enumerate(self._channels) if c.kind == kind]


#: destination-set mappings a graph keeps compiled tables for
_MAX_TABLES = 4


@functools.lru_cache(maxsize=1)
def shared_channel_graph(
    topology: Topology, routing: RoutingAlgorithm, one_port: bool
) -> ChannelGraph:
    """The :class:`ChannelGraph` of a network, shared by the models of it.

    Keyed by the topology and routing objects themselves, which the cache
    holds.  It keeps only the latest network: the paper and occupancy
    models of a panel are built back to back and so compile its routes
    once, and an earlier network's tables do not outlive its models.
    """
    return ChannelGraph(topology, routing, one_port=one_port)


class WormTable:
    """The channel sequences of a list of worms as flat int32 arrays.

    ``channels`` holds every worm's channels, worm after worm; ``lengths``
    the channel count of each worm; ``pairs`` the pair id (an index into
    the owning :class:`RouteTable`'s pair arrays) of each consecutive
    channel pair, worm after worm.
    """

    def __init__(
        self, channels: NDArray[np.int32], lengths: NDArray[np.int32], pairs: NDArray[np.int32]
    ) -> None:
        self.channels = channels
        self.lengths = lengths
        self.pairs = pairs
        starts = np.zeros(len(lengths), dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        #: the first (injection) channel of every worm
        self.first: NDArray[np.int32] = channels[starts]
        # path_sums bins: one leading entry per worm, then each pair's worm
        worms = np.arange(len(lengths), dtype=np.int32)
        self._bins = np.concatenate([worms, np.repeat(worms, lengths - 1)])

    @property
    def num_worms(self) -> int:
        return len(self.lengths)

    def path_sums(
        self, head: NDArray[np.float64], per_pair: NDArray[np.float64]
    ) -> NDArray[np.float64]:
        """``head[c_0] + per_pair[p_1] + per_pair[p_2] + ...`` per worm.

        One bincount over every worm's head term followed by all pair
        terms in path order: bincount adds in index order, so each worm's
        sum rounds exactly like a loop over its path (``np.sum`` would add
        pairwise and round differently).
        """
        terms = np.concatenate([head[self.first], per_pair[self.pairs]])
        return np.bincount(self._bins, weights=terms, minlength=self.num_worms)


class RouteTable:
    """Every unicast route of a network, plus each source's multicast worms
    for one destination-set mapping, compiled to int32 channel arrays.

    Channel pairs ``(a, b)`` that some worm crosses -- forward transitions
    and absorb-and-forward clones ``(network, ejection)`` -- get dense ids
    in order of first appearance: ``pair_src[i], pair_dst[i]``.  Unicast
    pairs come first and are shared by every table of the graph.

    Unicast (ordered ``(s, t)``, ``s != t``, in ``s``-major order):
    ``sources``, ``dests`` and their worms ``unicast``.

    Multicast (sources ascending, each source's worms in routing order):
    ``multicast`` worms; ``mc_sources`` and ``mc_groups`` (worm offsets per
    source); ``mc_serial``, the number of earlier worms of the same
    multicast on the worm's injection channel; ``mc_arrivals``, each
    worm's channels followed by its clone ejections; ``mc_feeds``, each
    worm's pair ids followed by its clone pair ids.
    """

    def __init__(
        self,
        graph: ChannelGraph,
        multicast_sets: tuple[tuple[int, tuple[int, ...]], ...],
        base: Optional[RouteTable] = None,
    ) -> None:
        self.num_nodes = graph.topology.num_nodes
        routing = graph.routing
        if base is None:
            pair_ids: dict[tuple[int, int], int] = {}
            sources, dests = np.nonzero(~np.eye(self.num_nodes, dtype=bool))
            channels, lengths, pairs = _compile(
                (
                    graph.route_channels(routing.unicast_route(s, t))
                    for s, t in zip(sources.tolist(), dests.tolist())
                ),
                pair_ids,
            )
            self.sources = sources.astype(np.int32)
            self.dests = dests.astype(np.int32)
            self.unicast = WormTable(channels, lengths, pairs)
        else:
            # the graph's unicast-only table: share its arrays and pair ids
            self.sources, self.dests, self.unicast = base.sources, base.dests, base.unicast
            unicast_pairs = zip(base.pair_src.tolist(), base.pair_dst.tolist())
            pair_ids = {pair: i for i, pair in enumerate(unicast_pairs)}

        seqs: list[list[int]] = []
        clones: list[list[tuple[int, int]]] = []
        serial: list[int] = []
        self.mc_sources: list[int] = []
        self.mc_groups = [0]
        for s, dests_s in multicast_sets:
            on_channel: dict[int, int] = {}
            for route in routing.multicast_routes(s, dests_s):
                seq = graph.multicast_worm_channels(route)
                seqs.append(seq)
                clones.append(graph.multicast_clone_ejections(route))
                serial.append(on_channel.get(seq[0], 0))
                on_channel[seq[0]] = serial[-1] + 1
            self.mc_sources.append(s)
            self.mc_groups.append(len(seqs))
        channels, lengths, pairs = _compile(seqs, pair_ids)
        self.multicast = WormTable(channels, lengths, pairs)
        self.mc_serial = np.asarray(serial, dtype=np.int32)
        # per worm: its channels (pair ids), then its clone ejections (pairs)
        arrivals, feeds = array("i"), array("i")
        start = 0
        for seq, worm_clones in zip(seqs, clones):
            arrivals.extend(seq)
            feeds.extend(pairs[start:start + len(seq) - 1].tolist())
            start += len(seq) - 1
            for net, ej in worm_clones:
                arrivals.append(ej)
                feeds.append(pair_ids.setdefault((net, ej), len(pair_ids)))
        self.mc_arrivals = np.frombuffer(arrivals, dtype=np.int32)
        self.mc_feeds = np.frombuffer(feeds, dtype=np.int32)

        all_pairs = np.array(list(pair_ids), dtype=np.int32).reshape(-1, 2)
        self.pair_src = all_pairs[:, 0].copy()
        self.pair_dst = all_pairs[:, 1].copy()

    @property
    def num_pairs(self) -> int:
        return len(self.pair_src)


def _compile(
    seqs: Iterable[Sequence[int]], pair_ids: dict[tuple[int, int], int]
) -> tuple[NDArray[np.int32], NDArray[np.int32], NDArray[np.int32]]:
    """Channel sequences as flat int32 arrays: channels, lengths and the id
    of every consecutive channel pair.  Each sequence is copied in as it
    arrives, so none outlives its turn; a pair seen for the first time
    gets the next id in ``pair_ids``."""
    channels, lengths, pairs = array("i"), array("i"), array("i")
    for seq in seqs:
        channels.extend(seq)
        lengths.append(len(seq))
        for pair in zip(seq, seq[1:]):
            pid = pair_ids.get(pair)
            if pid is None:
                pid = pair_ids[pair] = len(pair_ids)
            pairs.append(pid)
    return (
        np.frombuffer(channels, dtype=np.int32),
        np.frombuffer(lengths, dtype=np.int32),
        np.frombuffer(pairs, dtype=np.int32),
    )
