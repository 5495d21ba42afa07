"""Tests for the compiled route tables the analytical model runs on.

The tables replace a per-call walk over every ``Route``; these tests pin
them against that walk (channel sequences, clone pairs, port
serialisation, sums in path order) and check how they are cached.
"""

import math

import numpy as np
import pytest

from repro.core import AnalyticalModel, TrafficSpec
from repro.core.channel_graph import ChannelGraph, WormTable, shared_channel_graph
from repro.core.flows import build_flows
from repro.core.multicast import average_multicast_latency, multicast_latency_at_node
from repro.core.service import solve_service_times
from repro.core.unicast import average_unicast_latency, path_latency, path_waiting_time
from repro.routing import MeshRouting, QuarcRouting
from repro.topology import MeshTopology, QuarcTopology
from repro.workloads.destsets import random_multicast_sets


@pytest.fixture(scope="module")
def quarc16():
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    return topo, routing, random_multicast_sets(routing, 6, 7)


@pytest.fixture(scope="module")
def mesh4():
    topo = MeshTopology(4, 4)
    routing = MeshRouting(topo)
    return topo, routing, random_multicast_sets(routing, 5, 11, mode="per_node")


def _worms(table_part):
    """The per-worm channel lists of a :class:`WormTable`."""
    ends = np.cumsum(table_part.lengths)
    return [
        table_part.channels[end - length:end].tolist()
        for end, length in zip(ends, table_part.lengths)
    ]


class TestCompiledRoutes:
    @pytest.mark.parametrize("one_port", [False, True])
    def test_unicast_routes_match_route_walk(self, quarc16, one_port):
        topo, routing, _ = quarc16
        graph = ChannelGraph(topo, routing, one_port=one_port)
        table = graph.route_table()
        expected = [
            graph.route_channels(routing.unicast_route(s, t))
            for s in topo.nodes()
            for t in topo.nodes()
            if s != t
        ]
        assert _worms(table.unicast) == expected
        assert list(zip(table.sources.tolist(), table.dests.tolist())) == [
            (s, t) for s in topo.nodes() for t in topo.nodes() if s != t
        ]
        pairs = [(a, b) for seq in expected for a, b in zip(seq, seq[1:])]
        got = list(zip(table.pair_src[table.unicast.pairs].tolist(),
                       table.pair_dst[table.unicast.pairs].tolist()))
        assert got == pairs

    @pytest.mark.parametrize("net", ["quarc16", "mesh4"])
    def test_multicast_worms_clones_and_serial_charges(self, net, request):
        topo, routing, sets = request.getfixturevalue(net)
        graph = ChannelGraph(topo, routing)
        table = graph.route_table(sets)
        worms, clones, serial, sources = [], [], [], []
        for s, dests in sorted(sets.items()):
            seen: dict[int, int] = {}
            for route in routing.multicast_routes(s, sorted(dests)):
                seq = graph.multicast_worm_channels(route)
                worms.append(seq)
                clones.append(graph.multicast_clone_ejections(route))
                serial.append(seen.get(seq[0], 0))
                seen[seq[0]] = serial[-1] + 1
            sources.append(s)
        assert _worms(table.multicast) == worms
        assert table.mc_serial.tolist() == serial
        assert table.mc_sources == sources
        assert table.mc_groups[-1] == len(worms)
        # arrival events: each worm's channels, then its clone ejections
        assert table.mc_arrivals.tolist() == [
            c for seq, cl in zip(worms, clones) for c in seq + [ej for _, ej in cl]
        ]
        feeds = list(zip(table.pair_src[table.mc_feeds].tolist(),
                         table.pair_dst[table.mc_feeds].tolist()))
        assert feeds == [
            p for seq, cl in zip(worms, clones) for p in list(zip(seq, seq[1:])) + cl
        ]
        if net == "mesh4":  # column-path multicast shares ports
            assert max(serial) > 0

    def test_tables_cached_by_set_content(self, quarc16):
        topo, routing, sets = quarc16
        graph = ChannelGraph(topo, routing)
        table = graph.route_table(sets)
        assert graph.route_table(dict(sets)) is table
        # empty sets do not count; the unicast arrays are shared
        assert graph.route_table({**sets, 99: frozenset()}) is table
        other = graph.route_table({0: frozenset({1, 5})})
        assert other is not table and other.unicast is table.unicast
        assert graph.route_table() is graph.route_table({})

    def test_models_of_one_network_share_graph(self, quarc16):
        topo, routing, _ = quarc16
        paper = AnalyticalModel(topo, routing, recursion="paper")
        occ = AnalyticalModel(topo, routing, recursion="occupancy")
        assert paper.graph is occ.graph
        assert shared_channel_graph(topo, routing, False) is paper.graph
        assert AnalyticalModel(topo, routing, one_port=True).graph is not paper.graph


class TestSequentialSums:
    def test_path_sums_round_like_a_path_loop(self):
        rng = np.random.default_rng(3)
        lengths = rng.integers(2, 12, size=200).astype(np.int32)
        channels = rng.integers(0, 50, size=int(lengths.sum())).astype(np.int32)
        pairs = rng.integers(0, 80, size=int(lengths.sum()) - len(lengths)).astype(np.int32)
        table = WormTable(channels, lengths, pairs)
        head = rng.random(50) * 1e3
        per_pair = rng.random(80) * np.logspace(-6, 3, 80)
        got = table.path_sums(head, per_pair)
        start = pair_start = 0
        for k, length in enumerate(lengths.tolist()):
            total = float(head[channels[start]])
            for p in pairs[pair_start:pair_start + length - 1].tolist():
                total += float(per_pair[p])
            assert got[k] == total
            start += length
            pair_start += length - 1

    @pytest.mark.parametrize("weights", [None, "hotspot"])
    def test_unicast_average_equals_pair_loop(self, quarc16, weights):
        """The table-driven average against path_latency over every pair,
        bit for bit; the graph is a second ChannelGraph of the network, so
        the discounts are looked up across tables."""
        topo, routing, sets = quarc16
        w = None if weights is None else tuple(8.0 if t == 0 else 1.0 for t in range(16))
        spec = TrafficSpec(0.004, 0.05, 32, sets, w)
        graph = ChannelGraph(topo, routing)
        result = solve_service_times(graph, build_flows(graph, spec), 32)
        other = ChannelGraph(topo, routing)
        total = weight_sum = 0.0
        for s in topo.nodes():
            probs = spec.destination_probabilities(s, 16)
            for t in topo.nodes():
                if s != t:
                    pw = 1.0 if w is None else float(probs[t])
                    seq = graph.route_channels(routing.unicast_route(s, t))
                    total += pw * path_latency(result, seq)
                    weight_sum += pw
        expected = total / weight_sum
        assert average_unicast_latency(graph, result, spec) == expected
        assert average_unicast_latency(other, result, spec) == expected

    def test_multicast_average_equals_per_node_loop(self, mesh4):
        topo, routing, sets = mesh4
        spec = TrafficSpec(0.003, 0.1, 24, sets)
        graph = ChannelGraph(topo, routing)
        result = solve_service_times(graph, build_flows(graph, spec), 24)
        lats = [
            multicast_latency_at_node(graph, result, routing.multicast_routes(s, sorted(d)))
            for s, d in sorted(sets.items())
        ]
        total = 0.0
        for lat in lats:
            total += lat
        assert average_multicast_latency(graph, result, sets) == total / len(lats)

    def test_saturated_paths_are_infinite(self, quarc16):
        topo, routing, sets = quarc16
        spec = TrafficSpec(0.5, 0.05, 32, sets)
        graph = ChannelGraph(topo, routing)
        result = solve_service_times(graph, build_flows(graph, spec), 32)
        assert result.saturated
        assert average_unicast_latency(graph, result, spec) == math.inf
        assert average_multicast_latency(graph, result, sets) == math.inf
        seq = graph.route_channels(routing.unicast_route(0, 3))
        assert path_waiting_time(result, seq) == math.inf


class TestZeroRateWorms:
    def test_zero_weight_routes_carry_nothing(self, quarc16):
        """Routes to a zero-weight destination are skipped: no arrival,
        and their transitions are not forward edges."""
        topo, routing, _ = quarc16
        weights = tuple(0.0 if t == 5 else 1.0 for t in range(16))
        graph = ChannelGraph(topo, routing)
        flows = build_flows(graph, TrafficSpec(0.01, 0.0, 32, {}, weights))
        for ej in (graph.ejection(5, tag) for tag in topo.input_tags(5)):
            assert flows.arrival_rate[ej] == 0.0
            assert ej not in flows.edge_dst.tolist()
        uniform = build_flows(graph, TrafficSpec(0.01, 0.0, 32))
        assert len(flows.edge_src) < len(uniform.edge_src)
