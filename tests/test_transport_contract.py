"""Conformance suite for the Transport contract, run over BOTH backends.

Every behaviour asserted here is part of the documented lifecycle in
:class:`repro.runtime.transport.Transport`, plus the node-level seam around
it (timers on the node's clock, broadcast through the transport); the suite
is parametrized over the simulator backend (:class:`SimulatorTransport` on a
discrete-event network) and the socket backend (:class:`AsyncioTransport` on
a wall-clock peer network), so the two substrates cannot drift apart
silently.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.clock import WallClock
from repro.net.transport import PeerNetwork
from repro.net.wire import Hello
from repro.runtime.registry import MessageRegistry
from repro.sim.batching import BatchingConfig
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.simulator import Simulator
from repro.sim.topology import lan_topology


class RecordingNode(Node):
    """A node that records every dispatched message."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.handled = []

    def handle_message(self, src: int, message: object) -> None:
        self.handled.append((src, message))


class SimulatorBackend:
    """Contract harness over the discrete-event substrate."""

    name = "simulator"

    def __init__(self) -> None:
        self.sim = Simulator(seed=1)
        self.network = Network(self.sim, lan_topology(3))
        self.nodes = [RecordingNode(i, self.sim, self.network) for i in range(3)]

    def call(self, fn):
        return fn()

    def advance(self, ms: float) -> None:
        self.sim.run(until=self.sim.now + ms)

    def close(self) -> None:
        pass


class AsyncioBackend:
    """Contract harness over the wall-clock/socket substrate.

    One locally hosted node; the two remote peers point at unreachable
    localhost ports, which is fine for the contract suite — drop-when-
    unreachable is part of the contract.
    """

    name = "asyncio"

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        clock = WallClock(seed=1, loop=self.loop)
        peers = {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2), 2: ("127.0.0.1", 3)}
        self.network = PeerNetwork(clock, 0, peers)
        self.nodes = [RecordingNode(0, clock, self.network)]

    def call(self, fn):
        async def wrapper():
            return fn()

        return self.loop.run_until_complete(wrapper())

    def advance(self, ms: float) -> None:
        # Real milliseconds; contract delays are kept tiny on purpose.
        self.loop.run_until_complete(asyncio.sleep(ms / 1000.0))

    def close(self) -> None:
        self.call(lambda: self.nodes[0].transport.close())
        self.loop.run_until_complete(self.loop.shutdown_asyncgens())
        self.loop.close()


@pytest.fixture(params=[SimulatorBackend, AsyncioBackend], ids=["simulator", "asyncio"])
def backend(request):
    instance = request.param()
    yield instance
    instance.close()


def message() -> Hello:
    """Any registered message works as a payload."""
    return Hello(sender=7, role=0)


class TestTransportContract:
    def test_node_ids_lists_the_whole_cluster(self, backend):
        transport = backend.nodes[0].transport
        assert list(transport.node_ids) == [0, 1, 2]

    def test_timers_work_from_construction_before_start(self, backend):
        """Phase 1 of the lifecycle: timers are live before start()."""
        fired = []
        node = backend.nodes[0]
        backend.call(lambda: node.set_timer(5.0, lambda: fired.append(True)))
        assert fired == []
        backend.advance(50.0)
        assert fired == [True]

    def test_cancelled_timer_never_fires(self, backend):
        fired = []
        node = backend.nodes[0]
        timer = backend.call(lambda: node.set_timer(5.0, lambda: fired.append(True)))
        assert not timer.cancelled
        backend.call(lambda: timer.cancel())
        assert timer.cancelled
        backend.advance(50.0)
        assert fired == []

    def test_self_send_is_delivered_exactly_once(self, backend):
        node = backend.nodes[0]
        backend.call(lambda: node.transport.start())
        sent = message()
        backend.call(lambda: node.transport.send(0, sent))
        backend.advance(50.0)
        assert node.handled == [(0, sent)]

    def test_broadcast_without_self_skips_the_local_node(self, backend):
        node = backend.nodes[0]
        backend.call(lambda: node.transport.start())
        backend.call(lambda: node.transport.broadcast(message(), include_self=False))
        backend.advance(50.0)
        assert node.handled == []

    def test_broadcast_counts_a_send_per_destination(self, backend):
        node = backend.nodes[0]
        backend.call(lambda: node.transport.start())
        before = backend.network.stats.messages_sent
        backend.call(lambda: node.transport.broadcast(message()))
        backend.advance(50.0)
        assert backend.network.stats.messages_sent == before + 3

    def test_start_is_idempotent(self, backend):
        transport = backend.nodes[0].transport
        backend.call(lambda: transport.start())
        backend.call(lambda: transport.start())

    def test_sends_after_close_are_silent_noops(self, backend):
        node = backend.nodes[0]
        backend.call(lambda: node.transport.start())
        backend.call(lambda: node.transport.close())
        backend.call(lambda: node.transport.close())  # idempotent
        before = backend.network.stats.messages_sent
        backend.call(lambda: node.transport.send(0, message()))
        backend.advance(50.0)
        assert node.handled == []
        assert backend.network.stats.messages_sent == before


class TestAsyncioSpecifics:
    """Socket-only behaviours outside the shared contract."""

    def test_unreachable_peer_counts_a_drop(self):
        backend = AsyncioBackend()
        try:
            node = backend.nodes[0]
            backend.call(lambda: node.transport.start())
            backend.call(lambda: node.transport.send(1, message()))
            assert backend.network.stats.messages_dropped == 1
        finally:
            backend.close()

    def test_peer_network_rejects_foreign_registrations(self):
        backend = AsyncioBackend()
        try:
            class Foreign:
                node_id = 2
                crashed = False

            with pytest.raises(ValueError):
                backend.network.register(Foreign())
        finally:
            backend.close()

    def test_batching_is_rejected(self):
        backend = AsyncioBackend()
        try:
            with pytest.raises(NotImplementedError):
                backend.nodes[0].enable_batching(BatchingConfig())
        finally:
            backend.close()

    def test_node_broadcast_encodes_once(self, monkeypatch):
        """One broadcast is one codec pass, however many peers it reaches."""
        backend = AsyncioBackend()
        try:
            encodes = []
            encode = MessageRegistry.encode

            def counting_encode(registry, message):
                encodes.append(message)
                return encode(registry, message)

            monkeypatch.setattr(MessageRegistry, "encode", counting_encode)
            node = backend.nodes[0]
            backend.call(lambda: node.broadcast(message()))
            assert len(encodes) == 1
            assert backend.network.stats.messages_sent == 3
        finally:
            backend.close()
