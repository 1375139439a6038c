"""A functional packet-level network: hosts, OBIs, links, multiplexers.

This models the data-plane *forwarding* around OBIs (paper Figure 5):
packets leave a host, traverse a chain of OBIs — possibly through a
flow-hashing multiplexer in front of scaled replicas — and arrive at a
destination host. OBI output devices are wired to next nodes with
per-link latency; the whole thing runs on the virtual-time event
scheduler, which also drives OBI keepalives.

This network is *functional*: it moves real packets through real engine
code (NSH metadata and all). Performance numbers come from the cost
model in :mod:`repro.sim.runner`, not from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.controller.steering import SteeringHop
from repro.net.flow import FiveTuple
from repro.net.nsh import NshHeader
from repro.net.packet import Packet
from repro.obi.instance import OpenBoxInstance
from repro.sim.events import EventScheduler
from repro.transport.base import ChannelClosed


def flow_key_of(packet: Packet) -> int:
    """A load-balancing key for ``packet``, looking through NSH.

    Service-chain load balancers must hash the *inner* flow so that a
    flow keeps hitting the same replica regardless of encapsulation.
    """
    tuple5 = FiveTuple.of(packet)
    if tuple5 is None:
        try:
            nsh = NshHeader.parse(packet.data)
            inner = Packet(data=packet.data[nsh.header_len:])
            tuple5 = FiveTuple.of(inner)
        except ValueError:
            tuple5 = None
    return hash(tuple5.bidirectional_key()) if tuple5 is not None else 0


@dataclass
class ReceivedPacket:
    """A packet that arrived at a host, with its arrival time."""

    packet: Packet
    at: float


class Host:
    """A traffic endpoint: records everything it receives."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.received: list[ReceivedPacket] = []

    def deliver(self, network: "SimNetwork", packet: Packet) -> None:
        self.received.append(ReceivedPacket(packet=packet, at=network.clock.now))


class ObiNode:
    """An OBI attached to the network; output devices wire to next nodes."""

    def __init__(self, name: str, instance: OpenBoxInstance) -> None:
        self.name = name
        self.instance = instance
        self.dropped = 0
        self.punted = 0
        #: Packets refused by overload admission control — counted here
        #: so the packet-conservation invariant (injected == delivered +
        #: accounted drops) closes over every loss reason.
        self.shed = 0

    def deliver(self, network: "SimNetwork", packet: Packet) -> None:
        outcome = self.instance.process_packet(packet)
        if outcome.dropped:
            self.dropped += 1
        if outcome.punted:
            self.punted += 1
        if outcome.shed:
            self.shed += 1
        for devname, out_packet in outcome.outputs:
            network.emit(self.name, devname, out_packet)


class MultiplexerNode:
    """Flow-hash load balancing in front of OBI replicas (Figure 5, step 3->4).

    "this OBI is scaled to two instances, multiplexed by the network for
    load balancing" — replica choice uses the steering module's
    rendezvous hashing so flows stay pinned.
    """

    def __init__(self, name: str, hop: SteeringHop) -> None:
        self.name = name
        self.hop = hop
        self.per_replica: dict[str, int] = {}

    def deliver(self, network: "SimNetwork", packet: Packet) -> None:
        replica = self.hop.pick(flow_key_of(packet))
        self.per_replica[replica] = self.per_replica.get(replica, 0) + 1
        network.deliver(replica, packet)


@dataclass
class _Link:
    dst: str
    latency: float = 0.0


class SimNetwork:
    """The wiring fabric plus virtual clock."""

    def __init__(self) -> None:
        self.clock = EventScheduler()
        self.nodes: dict[str, object] = {}
        #: (node name, devname) -> link
        self.links: dict[tuple[str, str], _Link] = {}
        self.unrouted: list[tuple[str, str, Packet]] = []

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_host(self, name: str) -> Host:
        host = Host(name)
        self._add_node(name, host)
        return host

    def add_obi(self, name: str, instance: OpenBoxInstance) -> ObiNode:
        node = ObiNode(name, instance)
        self._add_node(name, node)
        return node

    def add_multiplexer(self, name: str, replicas: list[str],
                        weights: dict[str, float] | None = None) -> MultiplexerNode:
        node = MultiplexerNode(
            name, SteeringHop(group=name, replicas=replicas, weights=weights or {})
        )
        self._add_node(name, node)
        return node

    def _add_node(self, name: str, node: object) -> None:
        if name in self.nodes:
            raise ValueError(f"duplicate node name: {name!r}")
        self.nodes[name] = node

    def link(self, src: str, devname: str, dst: str, latency: float = 0.0) -> None:
        """Wire ``src``'s output device ``devname`` to node ``dst``."""
        for name in (src, dst):
            if name not in self.nodes:
                raise ValueError(f"unknown node: {name!r}")
        self.links[(src, devname)] = _Link(dst=dst, latency=latency)

    # ------------------------------------------------------------------
    # Packet movement
    # ------------------------------------------------------------------
    def inject(self, node: str, packet: Packet, at: float | None = None) -> None:
        """Schedule ``packet`` for delivery to ``node``."""
        when = at if at is not None else self.clock.now
        self.clock.schedule_at(when, lambda: self.deliver(node, packet))

    def deliver(self, node_name: str, packet: Packet) -> None:
        node = self.nodes.get(node_name)
        if node is None:
            raise KeyError(f"unknown node: {node_name!r}")
        node.deliver(self, packet)

    def emit(self, src: str, devname: str, packet: Packet) -> None:
        """An OBI emitted ``packet`` on ``devname``; follow the link."""
        link = self.links.get((src, devname))
        if link is None:
            self.unrouted.append((src, devname, packet))
            return
        if link.latency > 0:
            self.clock.schedule(link.latency, lambda: self.deliver(link.dst, packet))
        else:
            self.deliver(link.dst, packet)

    def run(self, until: float | None = None) -> int:
        if until is None:
            return self.clock.run()
        return self.clock.run_until(until)

    # ------------------------------------------------------------------
    # Control-plane beacons
    # ------------------------------------------------------------------
    def schedule_keepalives(self, name: str, interval: float | None = None) -> None:
        """Beacon an OBI node's keepalive every ``interval`` virtual seconds.

        ``interval`` defaults to the instance's configured
        ``keepalive_interval``. A dead controller makes the send raise
        ``ChannelClosed``; that is swallowed here — exactly the signal
        that eventually tips the OBI into headless mode, which recovery
        scenarios drive on this same virtual clock.
        """
        node = self.nodes.get(name)
        if not isinstance(node, ObiNode):
            raise ValueError(f"node {name!r} is not an OBI node")
        instance = node.instance
        period = (
            interval if interval is not None
            else instance.config.keepalive_interval
        )

        def beacon() -> None:
            try:
                instance.send_keepalive()
            except ChannelClosed:
                pass

        self.clock.schedule_every(period, beacon)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def observability(self, max_traces: int = 0) -> dict[str, object]:
        """Read an observability snapshot from every OBI node.

        Returns node name -> serialized
        :class:`~repro.protocol.messages.ObservabilitySnapshotResponse`,
        the same shape the controller folds from telemetry — handy for
        inspecting a simulation without standing up a control plane.
        """
        snapshots: dict[str, object] = {}
        for name, node in self.nodes.items():
            if isinstance(node, ObiNode):
                response = node.instance.observability_snapshot(
                    max_traces=max_traces
                )
                snapshots[name] = response.to_dict()
        return snapshots
