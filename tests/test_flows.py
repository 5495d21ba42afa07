"""Tests for per-channel flow/rate accumulation (the Eq. 6 inputs)."""

import numpy as np
import pytest

from repro.core.channel_graph import ChannelGraph, ChannelKind
from repro.core.flows import TrafficSpec, build_flows
from repro.routing import QuarcRouting
from repro.topology import QuarcTopology


@pytest.fixture(scope="module")
def net16():
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    return topo, routing, ChannelGraph(topo, routing)


class TestTrafficSpec:
    def test_rate_split(self):
        spec = TrafficSpec(0.01, 0.05, 32)
        assert spec.unicast_rate == pytest.approx(0.0095)
        assert spec.multicast_rate == pytest.approx(0.0005)

    def test_with_rate_preserves_everything_else(self):
        spec = TrafficSpec(0.01, 0.05, 32, {0: frozenset({1})})
        spec2 = spec.with_rate(0.02)
        assert spec2.message_rate == 0.02
        assert spec2.multicast_fraction == 0.05
        assert spec2.multicast_sets == spec.multicast_sets

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TrafficSpec(-0.01, 0.05, 32)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            TrafficSpec(0.01, 1.5, 32)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            TrafficSpec(0.01, 0.05, 0)

    def test_self_multicast_rejected(self):
        with pytest.raises(ValueError):
            TrafficSpec(0.01, 0.05, 32, {3: frozenset({3, 4})})


class TestUnicastFlows:
    def test_injection_rates_sum_to_offered(self, net16):
        topo, routing, graph = net16
        spec = TrafficSpec(0.01, 0.0, 32)
        flows = build_flows(graph, spec)
        assert flows.total_offered() == pytest.approx(16 * 0.01)

    def test_ejection_rates_sum_to_offered(self, net16):
        topo, routing, graph = net16
        spec = TrafficSpec(0.01, 0.0, 32)
        flows = build_flows(graph, spec)
        ej = graph.indices_of_kind(ChannelKind.EJECTION)
        assert flows.arrival_rate[ej].sum() == pytest.approx(16 * 0.01)

    def test_uniform_traffic_symmetric_rim_rates(self, net16):
        """Vertex symmetry: every CW rim channel carries the same rate."""
        topo, routing, graph = net16
        flows = build_flows(graph, TrafficSpec(0.01, 0.0, 32))
        cw_rates = [
            flows.arrival_rate[graph.network(l)]
            for l in topo.links()
            if l.tag == "CW"
        ]
        assert np.allclose(cw_rates, cw_rates[0])

    def test_cw_rim_rate_closed_form(self, net16):
        """For uniform unicast, a CW rim link carries
        lambda_u/(N-1) * (N/4)^2 (quadrant pairs + cross continuations)."""
        topo, routing, graph = net16
        lam = 0.01
        flows = build_flows(graph, TrafficSpec(lam, 0.0, 32))
        link = next(l for l in topo.links() if l.tag == "CW")
        got = flows.arrival_rate[graph.network(link)]
        expected = lam / 15 * (16 / 4) ** 2
        assert got == pytest.approx(expected)

    def test_cross_rate_closed_form(self, net16):
        """XCW cross link carries only its source's CR-quadrant traffic:
        lambda_u * Q / (N-1)."""
        topo, routing, graph = net16
        lam = 0.01
        flows = build_flows(graph, TrafficSpec(lam, 0.0, 32))
        link = next(l for l in topo.links() if l.tag == "XCW")
        got = flows.arrival_rate[graph.network(link)]
        assert got == pytest.approx(lam * 4 / 15)

    def test_xccw_rate_closed_form(self, net16):
        topo, routing, graph = net16
        lam = 0.01
        flows = build_flows(graph, TrafficSpec(lam, 0.0, 32))
        link = next(l for l in topo.links() if l.tag == "XCCW")
        got = flows.arrival_rate[graph.network(link)]
        assert got == pytest.approx(lam * 3 / 15)  # CL quadrant has Q-1 nodes

    def test_flow_conservation(self, net16):
        """Total network-channel rate = sum over pairs of rate * hops."""
        topo, routing, graph = net16
        lam = 0.01
        flows = build_flows(graph, TrafficSpec(lam, 0.0, 32))
        net = graph.indices_of_kind(ChannelKind.NETWORK)
        total_net = flows.arrival_rate[net].sum()
        pair_rate = lam / 15
        expected = pair_rate * sum(
            routing.hop_count(s, t) for s in range(16) for t in range(16) if s != t
        )
        assert total_net == pytest.approx(expected)


class TestForwardAndFeed:
    def test_forward_probabilities_normalised(self, net16):
        topo, routing, graph = net16
        flows = build_flows(graph, TrafficSpec(0.01, 0.0, 32))
        for idx in range(graph.num_channels):
            probs = flows.forward_probabilities(idx)
            if probs:
                assert sum(probs.values()) == pytest.approx(1.0)

    def test_ejection_fully_fed_by_single_channel(self, net16):
        """Quarc ejection channels have one feeder -> feed fraction 1
        (the Eq. 6 discount zeroes their waiting)."""
        topo, routing, graph = net16
        flows = build_flows(graph, TrafficSpec(0.01, 0.0, 32))
        for ej in graph.indices_of_kind(ChannelKind.EJECTION):
            if flows.arrival_rate[ej] == 0.0:
                continue
            feeders = [
                i
                for i in range(graph.num_channels)
                if flows.feed[i].get(ej, 0.0) > 0.0
            ]
            assert len(feeders) == 1
            assert flows.feed_fraction(feeders[0], ej) == pytest.approx(1.0)

    def test_injection_channels_have_no_feeders(self, net16):
        topo, routing, graph = net16
        flows = build_flows(graph, TrafficSpec(0.01, 0.0, 32))
        for inj in graph.indices_of_kind(ChannelKind.INJECTION):
            for i in range(graph.num_channels):
                assert flows.feed[i].get(inj, 0.0) == 0.0


class TestMulticastFlows:
    def test_worm_rate_full_on_each_port(self, net16):
        """A multicast is replicated per used port at the full multicast
        generation rate."""
        topo, routing, graph = net16
        sets = {0: frozenset({1, 9})}  # ports L and CR
        spec = TrafficSpec(0.01, 0.5, 32, sets)
        flows = build_flows(graph, spec)
        inj_l = graph.injection(0, "L")
        inj_cr = graph.injection(0, "CR")
        lam_m = spec.multicast_rate
        lam_u_share = spec.unicast_rate * 4 / 15  # L quadrant share
        assert flows.arrival_rate[inj_l] == pytest.approx(lam_u_share + lam_m)
        assert flows.arrival_rate[inj_cr] == pytest.approx(lam_m + spec.unicast_rate * 4 / 15)

    def test_clone_adds_ejection_rate_not_forward(self, net16):
        topo, routing, graph = net16
        sets = {0: frozenset({1, 3})}
        spec = TrafficSpec(0.01, 1.0, 32, sets)  # pure multicast
        flows = build_flows(graph, spec)
        # ejection at node 1 (intermediate target) sees the clone rate
        ej1 = graph.ejection(1, "CW")
        assert flows.arrival_rate[ej1] == pytest.approx(spec.multicast_rate)
        # but the worm's forward transition out of net(0->1) goes to net(1->2)
        net01 = graph.network(next(l for l in topo.links() if l.src == 0 and l.tag == "CW"))
        probs = flows.forward_probabilities(net01)
        assert graph.channel_at(max(probs, key=probs.get)).kind is ChannelKind.NETWORK

    def test_feed_includes_clone(self, net16):
        topo, routing, graph = net16
        sets = {0: frozenset({1, 3})}
        spec = TrafficSpec(0.01, 1.0, 32, sets)
        flows = build_flows(graph, spec)
        net01 = graph.network(next(l for l in topo.links() if l.src == 0 and l.tag == "CW"))
        ej1 = graph.ejection(1, "CW")
        assert flows.feed_fraction(net01, ej1) == pytest.approx(1.0)

    def test_empty_sets_mean_no_multicast_rates(self, net16):
        topo, routing, graph = net16
        spec = TrafficSpec(0.01, 0.5, 32, {})
        flows = build_flows(graph, spec)
        # only unicast rates present: offered = N * lambda_u
        assert flows.total_offered() == pytest.approx(16 * spec.unicast_rate)

    def test_negative_rate_rejected(self, net16):
        topo, routing, graph = net16
        from repro.core.flows import FlowAccumulator

        table = graph.route_table({0: frozenset({1, 9})})
        rates = np.full(len(table.sources), 0.01)
        FlowAccumulator(graph, table, rates, 0.01)
        rates[5] = -0.1
        with pytest.raises(ValueError):
            FlowAccumulator(graph, table, rates, 0.01)
        with pytest.raises(ValueError):
            FlowAccumulator(graph, table, np.zeros(len(table.sources)), -0.1)
