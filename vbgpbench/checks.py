"""End-of-run correctness checks: what the PoP sent must match the input.

Control plane: every experiment's byte stream is re-framed and decoded
(ADD-PATH on) into its final route set, which must hold exactly the
routes the feeds left announced, each with the feeding upstream's
virtual IP as next hop and the announced AS path.  Path-id *values* are
opaque per session (RFC 7911) and are not compared; only their
uniqueness per experiment and prefix is.  Each upstream's kernel table
must hold exactly its live prefixes, routed out of the LAN interface to
the neighbor's address.

Data plane: every pushed frame must leave through exactly one sink, the
one its destination MAC (egress) or destination prefix (ingress) selects,
with the MAC rewrite the PoP promises.

Every mismatch counts as one failed operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.errors import NotificationError
from repro.bgp.messages import MessageDecoder, OpenMessage, UpdateMessage
from repro.bgp.transport import FrameReassembler, FramingError
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.netsim.frames import EthernetFrame, IPv4Packet

# Expected announced state of one feed: prefix -> attributes.
Table = dict[IPv4Prefix, PathAttributes]


class Mismatches:
    """Counts failures and keeps the first few for the report."""

    KEEP = 5

    def __init__(self) -> None:
        self.count = 0
        self.examples: list[str] = []

    def add(self, what: str, count: int = 1) -> None:
        self.count += count
        if len(self.examples) < self.KEEP:
            self.examples.append(what)


Routes = dict[tuple[IPv4Prefix, int], tuple[IPv4Address, AsPath]]


def decode_routes(stream: bytes) -> Routes:
    """Decode one experiment's stream into its final route set.

    The result maps (prefix, path id) to (next hop, AS path): the
    experiment's ADD-PATH Adj-RIB-In after every byte of ``stream``.
    """
    decoder = MessageDecoder()
    routes: Routes = {}
    for frame in FrameReassembler().feed(bytes(stream)):
        decoder.feed(frame)
        message = decoder.next_message()
        if isinstance(message, OpenMessage):
            decoder.addpath = message.find_addpath() is not None
            continue
        if not isinstance(message, UpdateMessage):
            continue
        for key in message.withdrawn:
            routes.pop(key, None)
        if message.nlri:
            value = (message.attributes.next_hop, message.attributes.as_path)
            for key in message.nlri:
                routes[key] = value
    return routes


def check_world(world, tables: list[Table], mismatches: Mismatches,
                sinks=None) -> None:
    """Check ``sinks`` (default: every attached experiment) and the
    kernel tables against the feeds' announced ``tables``."""
    check_experiments(world, tables, mismatches,
                      world.experiments if sinks is None else sinks)
    check_kernel_tables(world, tables, mismatches)


def check_experiments(world, tables: list[Table], mismatches: Mismatches,
                      sinks) -> None:
    """Compare each experiment's decoded route set with the feeds."""
    expected: dict[tuple[IPv4Prefix, IPv4Address], AsPath] = {}
    for feed, table in zip(world.feeds, tables):
        vip = world.pop.node.upstreams[feed.name].virtual.local_ip
        for prefix, attrs in table.items():
            expected[prefix, vip] = attrs.as_path
    for sink in sinks:
        try:
            routes = decode_routes(sink.stream)
        except (FramingError, NotificationError) as error:
            mismatches.add(f"{sink.name}: undecodable stream: {error}")
            continue
        got = {
            (prefix, next_hop): as_path
            for (prefix, _path_id), (next_hop, as_path) in routes.items()
        }
        if len(got) != len(routes):
            mismatches.add(
                f"{sink.name}: a prefix is live under two path ids "
                f"via one neighbor", len(routes) - len(got))
        if got == expected:
            continue
        for key in expected.keys() | got.keys():
            if expected.get(key) != got.get(key):
                mismatches.add(f"{sink.name}: {key[0]} via {key[1]}: "
                               f"expected {expected.get(key)}, "
                               f"got {got.get(key)}")


def check_kernel_tables(world, tables: list[Table],
                        mismatches: Mismatches) -> None:
    """Each upstream's kernel table holds exactly its live prefixes."""
    stack = world.pop.stack
    for feed, table in zip(world.feeds, tables):
        upstream = world.pop.node.upstreams[feed.name]
        lpm = stack.tables.get(upstream.virtual.table_id)
        entries = {} if lpm is None else {
            entry.prefix: entry.value for entry in lpm.entries()
        }
        for prefix in entries.keys() | table.keys():
            route = entries.get(prefix)
            if prefix not in table:
                mismatches.add(f"{feed.name}: stale kernel route {prefix}")
            elif route is None:
                mismatches.add(f"{feed.name}: kernel route {prefix} missing")
            elif (route.out_iface != world.pop.node.upstream_iface
                  or route.next_hop != upstream.peer_address):
                mismatches.add(f"{feed.name}: kernel route {prefix} -> "
                               f"{route.out_iface}/{route.next_hop}")


@dataclass(frozen=True)
class Delivery:
    """Where one pushed frame must come out, and how it must look."""

    sink: str
    src: MacAddress
    dst: MacAddress
    packet: IPv4Packet


def check_delivery(delivered: list[tuple[str, EthernetFrame]],
                   expect: Delivery) -> Optional[str]:
    """None when ``delivered`` is exactly the expected frame."""
    if len(delivered) != 1:
        names = [name for name, _frame in delivered]
        return f"expected one frame at {expect.sink}, got {names}"
    sink, frame = delivered[0]
    packet = frame.payload
    if sink != expect.sink:
        return f"frame for {expect.sink} left through {sink}"
    if frame.src != expect.src or frame.dst != expect.dst:
        return (f"{sink}: MACs {frame.src}->{frame.dst}, expected "
                f"{expect.src}->{expect.dst}")
    if (not isinstance(packet, IPv4Packet)
            or packet.dst != expect.packet.dst
            or packet.src != expect.packet.src
            or packet.ttl != expect.packet.ttl - 1):
        return f"{sink}: packet altered: {packet}"
    return None
