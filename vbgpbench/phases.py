"""Seeded inputs and the three measured phases: ingest, churn, forward.

All load comes from one thread and is closed loop: the next frame or
packet goes in only after the previous one has drained to every sink,
the way one BGP session delivers an ordered TCP stream during a burst.
Inputs derive from the run seed alone; the PoP only ever receives the
generated frames.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.internet.fulltable import FullTableGenerator
from repro.netsim.addr import IPv4Address, IPv4Prefix
from repro.netsim.frames import (
    EtherType,
    EthernetFrame,
    IpProto,
    IPv4Packet,
    UdpDatagram,
)
from repro.netsim.link import Port

from vbgpbench.checks import Delivery, Mismatches, Table, check_delivery
from vbgpbench.world import World

# Prefixes per multi-NLRI UPDATE in a table load.
TABLE_NLRI = 200
# Share of data-plane packets sent by experiments (the rest come in from
# neighbors).
EGRESS_SHARE = 0.5
_PAGE = os.sysconf("SC_PAGE_SIZE")


def derive_seed(seed: int, purpose: str) -> int:
    """A stable 64-bit sub-seed (independent of PYTHONHASHSEED)."""
    digest = hashlib.sha256(f"{seed}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rss_bytes() -> int:
    """Resident set size of this process, from ``/proc/self/statm``."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * _PAGE


@dataclass
class FeedTable:
    """One upstream's seeded DFZ-shaped table, pre-encoded to frames."""

    seed: int
    prefixes: int
    frames: list[bytes] = field(default_factory=list)
    expected: Table = field(default_factory=dict)

    def __post_init__(self) -> None:
        generator = self.generator()
        for update in generator.table_updates(max_nlri=TABLE_NLRI):
            self.frames.append(update.encode())
            for prefix, _path_id in update.nlri:
                self.expected[prefix] = update.attributes

    def generator(self) -> FullTableGenerator:
        return FullTableGenerator(prefix_count=self.prefixes, seed=self.seed)


def make_tables(seed: int, upstreams: int, prefixes: int) -> list[FeedTable]:
    return [FeedTable(derive_seed(seed, f"table{index}"), prefixes)
            for index in range(upstreams)]


# ---------------------------------------------------------------------------
# ingest and late join


@dataclass
class IngestSample:
    seconds: array  # per UPDATE frame, first frame in to last byte out
    prefixes: int
    rss_bytes: int


def ingest(world: World, tables: list[FeedTable],
           step: Optional[Callable] = None) -> IngestSample:
    """Every feed sends its whole table, one closed-loop frame at a time.

    RSS growth excludes the bytes the benchmark's own sinks hold.
    """
    step = step or world.feed_frame
    clock = time.perf_counter
    rss_before = rss_bytes()
    sinks_before = world.sink_bytes()
    seconds = array("d")
    for feed, table in zip(world.feeds, tables):
        for frame in table.frames:
            start = clock()
            step(feed, frame)
            seconds.append(clock() - start)
    growth = (rss_bytes() - rss_before) - (world.sink_bytes() - sinks_before)
    prefixes = sum(len(table.expected) for table in tables)
    return IngestSample(seconds, prefixes, growth)


def late_join(world: World, step: Optional[Callable] = None) -> float:
    """Attach one more experiment; seconds until its full table is out."""
    step = step or join
    start = time.perf_counter()
    step(world)
    return time.perf_counter() - start


def join(world: World) -> None:
    """Attach the next experiment and drain its handshake and dump."""
    world.attach_experiment(len(world.experiments))
    world.drain()
    # The newcomer's MAC announcement floods the experiment switch.
    world.delivered.clear()


# ---------------------------------------------------------------------------
# churn and forwarding


@dataclass
class OpTimes:
    """Per-operation wall-clock times of one closed-loop phase (an array,
    which the collector does not walk)."""

    seconds: array = field(default_factory=lambda: array("d"))

    @property
    def ops(self) -> int:
        return len(self.seconds)


def churn_frames(tables: list[FeedTable], count: int
                 ) -> tuple[list[bytes], list[Table]]:
    """``count`` single-prefix flaps and withdrawals of the first feed,
    pre-encoded, and every feed's announced table once they are in."""
    after = [dict(table.expected) for table in tables]
    frames = []
    for update in tables[0].generator().churn(count):
        frames.append(update.encode())
        for prefix, _path_id in update.withdrawn:
            after[0].pop(prefix, None)
        for prefix, _path_id in update.nlri:
            after[0][prefix] = update.attributes
    return frames, after


def churn(world: World, frames: list[bytes],
          step: Optional[Callable] = None) -> OpTimes:
    """Feed the pre-encoded churn frames from the first feed."""
    step = step or world.feed_frame
    feed = world.feeds[0]
    times = OpTimes()
    clock = time.perf_counter
    for frame in frames:
        start = clock()
        step(feed, frame)
        times.seconds.append(clock() - start)
    return times


@dataclass(frozen=True)
class Packet:
    """One data-plane operation, by neighbor and experiment index: every
    build of the PoP draws fresh MACs, so frames are addressed per world
    (see :class:`Wiring`)."""

    egress: bool  # experiment -> neighbor, else neighbor -> experiment
    neighbor: int
    experiment: int
    packet: IPv4Packet


def make_packets(world: World, tables: list[FeedTable], seed: int,
                 count: int) -> list[Packet]:
    """A seeded mix of experiment egress and Internet ingress packets.

    Egress: a random experiment sends to a random neighbor, toward a
    random address inside a random prefix of that neighbor's table.
    Ingress: a random neighbor delivers a packet for a random address in
    a random experiment's prefix.  Destinations spread over whole
    tables, far beyond the LPM lookup cache.  ``world`` is any fresh
    build; its addresses are the same in every build.
    """
    rng = random.Random(seed)
    local_ips = world.pop.stack.local_ips()
    tables_by_neighbor = [sorted(table.expected, key=_prefix_key)
                          for table in tables]
    experiment_prefixes = [sink.prefix for sink in world.experiments]
    packets = []
    for _ in range(count):
        neighbor = rng.randrange(len(tables_by_neighbor))
        experiment = rng.randrange(len(experiment_prefixes))
        exp_host = experiment_prefixes[experiment].address_at(
            rng.randrange(1, 255))
        egress = rng.random() < EGRESS_SHARE
        if egress:
            while True:
                prefix = rng.choice(tables_by_neighbor[neighbor])
                dst = prefix.address_at(
                    rng.randrange(1 << (32 - prefix.length)))
                if dst not in local_ips:
                    break
            packet = _udp(exp_host, dst, rng)
        else:
            packet = _udp(IPv4Address(rng.getrandbits(32)), exp_host, rng)
        packets.append(Packet(egress, neighbor, experiment, packet))
    return packets


class Wiring:
    """One world's ports and MACs: turns a :class:`Packet` into the frame
    to push, the port to push it at, and where it must come out."""

    def __init__(self, world: World) -> None:
        pop = world.pop
        node = pop.node
        self.exp_port = pop.stack.interfaces[node.exp_iface].port
        self.lan_port = pop.stack.interfaces[node.upstream_iface].port
        self.server_lan_mac = pop.server_lan_mac
        self.neighbors = [
            (feed.name, feed.port.mac, node.upstreams[feed.name].virtual.mac)
            for feed in world.feeds
        ]
        self.experiments = [(sink.name, sink.attachment.tunnel_mac)
                            for sink in world.experiments]

    def frame(self, packet: Packet) -> tuple[Port, EthernetFrame, Delivery]:
        name, peer_mac, vmac = self.neighbors[packet.neighbor]
        exp_name, tunnel_mac = self.experiments[packet.experiment]
        ip = packet.packet
        if packet.egress:
            frame = EthernetFrame(src=tunnel_mac, dst=vmac,
                                  ethertype=EtherType.IPV4, payload=ip)
            return self.exp_port, frame, Delivery(
                sink=name, src=self.server_lan_mac, dst=peer_mac, packet=ip)
        frame = EthernetFrame(src=peer_mac, dst=self.server_lan_mac,
                              ethertype=EtherType.IPV4, payload=ip)
        return self.lan_port, frame, Delivery(
            sink=exp_name, src=vmac, dst=tunnel_mac, packet=ip)


def _prefix_key(prefix: IPv4Prefix) -> tuple[int, int]:
    return prefix.network.value, prefix.length


def _udp(src: IPv4Address, dst: IPv4Address,
         rng: random.Random) -> IPv4Packet:
    return IPv4Packet(src=src, dst=dst, proto=IpProto.UDP,
                      payload=UdpDatagram(rng.randrange(1024, 65536), 9))


def forward(world: World, packets: list[Packet], mismatches: Mismatches,
            step: Optional[Callable] = None) -> OpTimes:
    """Push the packets one at a time; each must leave where it should."""
    step = step or world.push_frame
    wiring = Wiring(world)
    times = OpTimes()
    clock = time.perf_counter
    delivered = world.delivered
    for packet in packets:
        port, frame, expect = wiring.frame(packet)
        start = clock()
        step(port, frame)
        times.seconds.append(clock() - start)
        problem = check_delivery(delivered, expect)
        if problem is not None:
            mismatches.add(problem)
        delivered.clear()
    return times
