"""Tests for the parking-lot (multi-bottleneck) topology."""

import pytest

from repro.app.ftp import FtpSource
from repro.errors import ConfigurationError
from repro.metrics.flowstats import FlowStats
from repro.net.parkinglot import ParkingLot, ParkingLotParams
from repro.sim.engine import Simulator
from repro.tcp.factory import make_connection


def build(n_hops=3, **kwargs):
    sim = Simulator()
    lot = ParkingLot(sim, ParkingLotParams(n_hops=n_hops, **kwargs))
    return sim, lot


class TestConstruction:
    def test_router_chain(self):
        _, lot = build(n_hops=3)
        assert [r.name for r in lot.routers] == ["R1", "R2", "R3", "R4"]
        assert len(lot.bottlenecks) == 3

    def test_host_naming(self):
        _, lot = build(n_hops=2)
        assert lot.long_src.name == "L_src"
        assert lot.long_dst.name == "L_dst"
        assert lot.cross_pairs[0][0].name == "X1_src"
        assert lot.cross_pairs[1][1].name == "X2_dst"

    def test_invalid_params(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            ParkingLot(sim, ParkingLotParams(n_hops=0))

    def test_long_path_rtt(self):
        _, lot = build(n_hops=3)
        p = lot.params
        expected = 2 * (2 * p.side_delay + 3 * p.bottleneck_delay)
        assert lot.long_path_rtt() == pytest.approx(expected)


class TestTraffic:
    def test_long_flow_crosses_every_hop(self):
        sim, lot = build(n_hops=3)
        sender, _ = make_connection(sim, "rr", 1, lot.long_src, lot.long_dst)
        FtpSource(sim, sender, amount_packets=50)
        sim.run(until=60.0)
        assert sender.completed
        for bottleneck in lot.bottlenecks:
            assert bottleneck.packets_delivered >= 50

    def test_cross_flows_use_single_hop(self):
        sim, lot = build(n_hops=2)
        src, dst = lot.cross_pairs[0]
        sender, _ = make_connection(sim, "newreno", 1, src, dst)
        FtpSource(sim, sender, amount_packets=30)
        sim.run(until=60.0)
        assert sender.completed
        assert lot.bottlenecks[0].packets_delivered >= 30
        assert lot.bottlenecks[1].packets_delivered == 0

    def test_multi_bottleneck_bias(self):
        """The classic parking-lot result: the long flow, competing at
        every hop, gets less throughput than the single-hop cross
        flows."""
        sim, lot = build(n_hops=3, buffer_packets=15)
        stats = {}
        long_stats = FlowStats(flow_id=1)
        long_sender, _ = make_connection(
            sim, "newreno", 1, lot.long_src, lot.long_dst, observer=long_stats
        )
        FtpSource(sim, long_sender, amount_packets=None)
        for hop in range(1, 4):
            src, dst = lot.cross_pairs[hop - 1]
            flow_stats = FlowStats(flow_id=hop + 1)
            sender, _ = make_connection(
                sim, "newreno", hop + 1, src, dst, observer=flow_stats
            )
            FtpSource(sim, sender, amount_packets=None)
            stats[hop] = flow_stats
        sim.run(until=60.0)
        cross_mean = sum(s.final_ack for s in stats.values()) / len(stats)
        assert long_stats.final_ack < cross_mean

    def test_all_variants_complete_across_chain(self):
        for variant in ("tahoe", "sack", "rr", "vegas"):
            sim, lot = build(n_hops=2)
            sender, _ = make_connection(sim, variant, 1, lot.long_src, lot.long_dst)
            FtpSource(sim, sender, amount_packets=80)
            sim.run(until=120.0)
            assert sender.completed, variant
