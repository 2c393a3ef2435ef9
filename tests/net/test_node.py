"""Unit tests for hosts, routers and agents."""

import pytest

from repro.errors import TopologyError
from repro.net.link import Link
from repro.net.node import Agent, Host, Router
from repro.net.packet import data_packet
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator


class RecordingAgent(Agent):
    def __init__(self, flow_id):
        super().__init__(flow_id)
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def link_between(sim, src, dst, name="L"):
    link = Link(sim, name, 1e6, 0.001, DropTailQueue(100, name))
    link.connect(dst)
    src.add_route(dst.name, link)
    return link


class TestHost:
    def test_register_and_deliver(self, sim):
        host = Host(sim, "K1")
        agent = RecordingAgent(flow_id=1)
        host.register(agent)
        packet = data_packet(1, "S1", "K1", 0)
        host.receive(packet)
        assert agent.received == [packet]

    def test_duplicate_flow_registration_rejected(self, sim):
        host = Host(sim, "K1")
        host.register(RecordingAgent(1))
        with pytest.raises(TopologyError):
            host.register(RecordingAgent(1))

    def test_unknown_flow_rejected(self, sim):
        host = Host(sim, "K1")
        with pytest.raises(TopologyError):
            host.receive(data_packet(9, "S1", "K1", 0))

    def test_misrouted_packet_rejected(self, sim):
        host = Host(sim, "K1")
        host.register(RecordingAgent(1))
        with pytest.raises(TopologyError):
            host.receive(data_packet(1, "S1", "K2", 0))

    def test_agent_send_goes_via_host_route(self, sim):
        src = Host(sim, "S1")
        dst = Host(sim, "K1")
        dst.register(RecordingAgent(1))
        link_between(sim, src, dst)
        agent = RecordingAgent(1)
        src.register(agent)
        agent.send(data_packet(1, "S1", "K1", 0))
        sim.run()
        assert dst.packets_received == 1

    def test_unattached_agent_send_raises(self):
        agent = RecordingAgent(1)
        with pytest.raises(TopologyError):
            agent.send(data_packet(1, "S1", "K1", 0))


class TestRouter:
    def test_forwards_by_destination(self, sim):
        router = Router(sim, "R1")
        dst = Host(sim, "K1")
        dst.register(RecordingAgent(1))
        link_between(sim, router, dst)
        router.receive(data_packet(1, "S1", "K1", 0))
        sim.run()
        assert dst.packets_received == 1

    def test_no_route_raises(self, sim):
        router = Router(sim, "R1")
        with pytest.raises(TopologyError):
            router.receive(data_packet(1, "S1", "K9", 0))

    def test_counts_received(self, sim):
        router = Router(sim, "R1")
        dst = Host(sim, "K1")
        dst.register(RecordingAgent(1))
        link_between(sim, router, dst)
        for i in range(3):
            router.receive(data_packet(1, "S1", "K1", i))
        assert router.packets_received == 3
