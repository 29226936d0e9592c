"""The benchmarked world: one real PoP, its feeds, experiments and sinks.

Everything the PoP sees arrives as it would in operation:

* each upstream neighbor is a real :class:`BgpSession` on the neighbor's
  end of the PoP's channel pair; after the handshake the benchmark writes
  raw, pre-encoded UPDATE frames into that channel (the session stays
  attached so keepalives keep both hold timers satisfied);
* each experiment is a real ADD-PATH :class:`BgpSession` that runs the
  OPEN/KEEPALIVE exchange and then stops parsing: from then on its
  channel end only appends bytes to a sink, which the end-of-run check
  decodes;
* data-plane frames are pushed into the PoP's ``exp0``/``ixp0`` ports and
  leave through its switches into one sink port per neighbor and per
  experiment.

Channels carry bytes in process through the shared scheduler; nothing
crosses the loopback interface.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

from repro import perf
from repro.bgp.messages import UpdateMessage
from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.transport import Channel, connect_pair
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.frames import ArpOp, ArpPacket, EtherType, EthernetFrame
from repro.netsim.link import Link, Port
from repro.platform.pop import NeighborPort, PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry
from repro.vbgp.node import ExperimentAttachment

PLATFORM_ASN = 47065
EXPERIMENT_ASN = 47065
FIRST_UPSTREAM_ASN = 65010
# Virtual time that covers every OPEN/KEEPALIVE round trip of a new world.
HANDSHAKE_S = 0.05

# The benchmark's own write into a feed channel.  Bound here, before any
# trace hook can wrap ``Channel.send``, so the injection is never counted
# as a frame the PoP sent.
_inject = Channel.send


def _noop_update(_session: BgpSession, _update: UpdateMessage) -> None:
    return None


@dataclass
class Feed:
    """One upstream neighbor: the PoP-side port plus our live session."""

    port: NeighborPort
    session: BgpSession

    @property
    def name(self) -> str:
        return self.port.name

    def send(self, frame: bytes) -> None:
        _inject(self.port.channel, frame)


@dataclass
class ExperimentSink:
    """One experiment: its attachment and everything the PoP sent it."""

    index: int
    attachment: ExperimentAttachment
    client: BgpSession
    forward: Callable[[bytes], None]
    stream: bytearray = field(default_factory=bytearray)

    @property
    def name(self) -> str:
        return self.attachment.name

    @property
    def prefix(self) -> IPv4Prefix:
        return self.attachment.prefixes[0]

    def receive(self, data: bytes) -> None:
        """Channel ``on_data``: tee into the client until it is up."""
        self.stream += data
        if not self.client.established:
            self.forward(data)


@dataclass
class DataSink:
    """A port handler recording every frame that leaves the PoP there."""

    name: str
    delivered: list[tuple[str, EthernetFrame]]

    def receive(self, frame: EthernetFrame, _port: Port) -> None:
        self.delivered.append((self.name, frame))


class World:
    """A built PoP with ``upstreams`` feeds and ``experiments`` sinks."""

    def __init__(self, upstreams: int, experiments: int) -> None:
        perf.clear_caches()
        self.scheduler = Scheduler()
        self.pop = PointOfPresence(
            self.scheduler,
            PopConfig(name="bench", pop_id=0, kind="ixp"),
            platform_asn=PLATFORM_ASN,
            platform_asns=frozenset({PLATFORM_ASN}),
            registry=GlobalNeighborRegistry(),
            enforcer_state=EnforcerState(),
        )
        lan_latency = self.pop.config.lan_latency
        # One upstream channel hop, or LAN link + LAN switch for a frame:
        # both take two LAN latencies.  The margin only absorbs float
        # rounding; no other event falls inside it.
        self.drain_s = 2 * lan_latency + 1e-7
        # Data-plane frames leaving the PoP: (sink name, frame).
        self.delivered: list[tuple[str, EthernetFrame]] = []
        self.feeds: list[Feed] = []
        for index in range(upstreams):
            self.feeds.append(self._provision_feed(index))
        self.experiments: list[ExperimentSink] = []
        # Every experiment ever attached, detached ones included.
        self.attached: list[ExperimentSink] = []
        for index in range(experiments):
            self.attach_experiment(index)
        self.settle()

    # -- construction ------------------------------------------------------

    def _provision_feed(self, index: int) -> Feed:
        asn = FIRST_UPSTREAM_ASN + index
        port = self.pop.provision_neighbor(f"up{index}", asn, kind="peer")
        session = BgpSession(
            self.scheduler,
            SessionConfig(local_asn=asn, local_id=port.address,
                          peer_asn=PLATFORM_ASN, description=f"feed{index}"),
            port.channel, on_update=_noop_update,
        )
        session.start()
        sink = Port(f"sink-{port.name}")
        Link(self.scheduler, sink, port.lan_port)
        sink.attach(DataSink(port.name, self.delivered).receive)
        # Teach the LAN switch where the neighbor's MAC lives, so frames
        # toward it are switched instead of flooded.
        self._announce_mac(sink, port.mac, port.address,
                           self.pop.server_lan_mac)
        return Feed(port=port, session=session)

    def attach_experiment(self, index: int) -> ExperimentSink:
        """Attach experiment ``index`` and start both BGP speakers.

        The handshake and, for a late joiner, the full-table dump happen
        on the next :meth:`drain`.
        """
        ours, theirs = connect_pair(self.scheduler, rtt=0.0)
        tunnel_ip = IPv4Address.parse(f"100.125.{index}.2")
        tunnel_mac = MacAddress(0x02AA00000000 + index)
        prefix = IPv4Prefix.parse(f"184.164.{224 + index}.0/24")
        attachment = self.pop.node.attach_experiment(
            name=f"x{index}", asn=EXPERIMENT_ASN, prefixes=(prefix,),
            tunnel_ip=tunnel_ip, tunnel_mac=tunnel_mac, channel=ours,
        )
        self.pop.data_enforcer.register_experiment(tunnel_mac, (prefix,))
        # Hold time 0: the client stops reading after the handshake, so a
        # running hold timer would expire and tear the session down.
        client = BgpSession(
            self.scheduler,
            SessionConfig(local_asn=EXPERIMENT_ASN, local_id=tunnel_ip,
                          peer_asn=PLATFORM_ASN, addpath=True, hold_time=0,
                          description=f"client{index}"),
            theirs, on_update=_noop_update,
        )
        sink = ExperimentSink(index=index, attachment=attachment,
                              client=client, forward=theirs.on_data)
        theirs.on_data = sink.receive
        switch_port = self.pop.exp_switch.add_port(f"x{index}")
        data_port = Port(f"sink-x{index}")
        Link(self.scheduler, data_port, switch_port)
        data_port.attach(DataSink(attachment.name, self.delivered).receive)
        self._announce_mac(data_port, tunnel_mac, tunnel_ip,
                           self.pop.server_exp_mac)
        client.start()
        self.experiments.append(sink)
        self.attached.append(sink)
        return sink

    @staticmethod
    def _announce_mac(port: Port, mac: MacAddress, ip: IPv4Address,
                      server_mac: MacAddress) -> None:
        port.transmit(EthernetFrame(
            src=mac, dst=server_mac, ethertype=EtherType.ARP,
            payload=ArpPacket(op=ArpOp.REPLY, sender_mac=mac, sender_ip=ip,
                              target_mac=server_mac,
                              target_ip=IPv4Address(0)),
        ))

    def detach_experiment(self, sink: ExperimentSink) -> None:
        """Shut the experiment's session down; the PoP withdraws it."""
        sink.client.shutdown()
        self.drain()
        self.pop.data_enforcer.deregister_experiment(
            sink.attachment.tunnel_mac)
        self.experiments.remove(sink)

    # -- driving -----------------------------------------------------------

    def drain(self) -> None:
        """Run every event the last input caused."""
        scheduler = self.scheduler
        scheduler.run_until(scheduler.now + self.drain_s)

    def feed_frame(self, feed: Feed, frame: bytes) -> None:
        """One control-plane operation: a raw UPDATE in, drained out."""
        feed.send(frame)
        self.drain()

    def push_frame(self, port: Port, frame: EthernetFrame) -> None:
        """One data-plane operation: a frame in at ``port``, drained out."""
        port.deliver(frame)
        self.drain()

    def settle(self) -> None:
        """Finish the handshakes and MAC priming of a fresh world."""
        self.scheduler.run_for(HANDSHAKE_S)
        self.delivered.clear()
        for feed in self.feeds:
            if not feed.session.established:
                raise RuntimeError(f"feed {feed.name} did not establish")
        for sink in self.experiments:
            if not sink.attachment.session.established:
                raise RuntimeError(f"experiment {sink.name} did not establish")

    def sink_bytes(self) -> int:
        """Bytes the benchmark's own sinks hold (excluded from RSS)."""
        return sum(sys.getsizeof(sink.stream) for sink in self.attached)
