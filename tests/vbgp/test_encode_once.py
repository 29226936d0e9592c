"""Encode-once ADD-PATH fan-out: one path-id table, one encode per change.

Every experiment sees the same routes with the same rewritten next hops
(paper §4.2), so the node keeps one path-id table for all of them and
encodes each fan-out UPDATE once per ADD-PATH mode, whatever the number
of experiments.  These tests pin the scaling (encode count independent
of the experiment count), the identity of co-attached streams, the
late-joiner / ROUTE-REFRESH views (equal modulo path-id renaming, since
RFC 7911 ids are opaque per session) and the table's release path.
"""

import pytest

from repro import perf
from repro.bgp.attributes import local_route
from repro.bgp.messages import UpdateMessage
from repro.bgp.session import BgpSession, SessionConfig
from repro.bgp.transport import connect_pair
from repro.conformance.differential import WireTap, route_fingerprint
from repro.internet.fulltable import FullTableGenerator
from repro.netsim.addr import IPv4Address, IPv4Prefix, MacAddress
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry

UPSTREAM = "upstream"


def _pop(scheduler):
    pop = PointOfPresence(
        scheduler,
        PopConfig(name="eo", pop_id=0, kind="ixp"),
        platform_asn=47065,
        platform_asns=frozenset({47065}),
        registry=GlobalNeighborRegistry(),
        enforcer_state=EnforcerState(),
    )
    pop.provision_neighbor(UPSTREAM, 65010, kind="peer")
    return pop


class Client:
    """An ADD-PATH experiment client: records the UPDATE frames the PoP
    sends it and the routes they leave it holding, by path id."""

    def __init__(self, scheduler, pop, index):
        ours, theirs = connect_pair(scheduler, rtt=0.001)
        tunnel_ip = IPv4Address.parse(f"100.125.{index}.2")
        self.attachment = pop.node.attach_experiment(
            name=f"x{index}", asn=47065,
            prefixes=(IPv4Prefix.parse(f"184.164.{224 + index}.0/24"),),
            tunnel_ip=tunnel_ip,
            tunnel_mac=MacAddress(0x02AA00000000 + index),
            channel=ours,
        )
        self.routes = {}
        self.session = BgpSession(
            scheduler,
            SessionConfig(local_asn=47065, local_id=tunnel_ip,
                          peer_asn=47065, addpath=True),
            theirs, on_update=self._on_update,
        )
        self.tap = WireTap(theirs)
        self.session.start()

    def _on_update(self, _session, update):
        for _prefix, path_id in update.withdrawn:
            self.routes.pop(path_id, None)
        for route in update.routes():
            self.routes[route.path_id] = route

    def view(self):
        """The held routes with their path ids stripped, canonicalised."""
        return sorted(
            route_fingerprint(route.with_path_id(None))
            for route in self.routes.values()
        )


def _feed(scheduler, pop, updates):
    for update in updates:
        pop.node._upstream_update(UPSTREAM, update)
        scheduler.run_until(scheduler.now)
    scheduler.run_for(1)


def _table_with_churn(seed=11, prefixes=400, churn=150):
    generator = FullTableGenerator(prefix_count=prefixes, seed=seed)
    updates = list(generator.table_updates())
    updates.extend(generator.churn(churn))
    return updates


@pytest.mark.parametrize("experiments", [1, 8, 32])
def test_encodes_per_update_do_not_grow_with_experiments(monkeypatch,
                                                         experiments):
    """One upstream UPDATE costs the same number of encodes at 1, 8 and
    32 co-attached ADD-PATH experiments: one per fan-out message."""
    scheduler = Scheduler()
    pop = _pop(scheduler)
    clients = [Client(scheduler, pop, index) for index in range(experiments)]
    scheduler.run_for(5)
    prefixes = tuple(IPv4Prefix.parse("70.0.0.0/8").subnets(24))[:3]
    next_hop = IPv4Address.parse("10.0.0.1")
    routes = [local_route(prefix, next_hop=next_hop) for prefix in prefixes]
    calls = []
    original = UpdateMessage._encode_into_buffer

    def counting(self, addpath):
        calls.append(addpath)
        return original(self, addpath)

    monkeypatch.setattr(UpdateMessage, "_encode_into_buffer", counting)
    _feed(scheduler, pop, [UpdateMessage.announce(routes)])
    _feed(scheduler, pop, [UpdateMessage.withdraw(routes[:2])])
    # One announcement UPDATE plus one withdrawal UPDATE, each encoded
    # once (ADD-PATH) however many sessions receive it.
    assert calls == [True, True]
    assert all(len(client.tap.frames) == 2 for client in clients)
    assert all(len(client.routes) == 1 for client in clients)


def test_co_attached_experiments_receive_identical_streams():
    scheduler = Scheduler()
    pop = _pop(scheduler)
    clients = [Client(scheduler, pop, index) for index in range(4)]
    scheduler.run_for(5)
    _feed(scheduler, pop, _table_with_churn())
    reference = clients[0].tap.frames
    assert reference
    for client in clients[1:]:
        assert client.tap.frames == reference
    assert all(client.routes == clients[0].routes for client in clients)


def _co_attached_streams(experiments=3):
    scheduler = Scheduler()
    pop = _pop(scheduler)
    clients = [Client(scheduler, pop, index)
               for index in range(experiments)]
    scheduler.run_for(5)
    _feed(scheduler, pop, _table_with_churn(prefixes=300, churn=60))
    engine = pop.node.shard_engine
    jobs = engine.stats.jobs_dispatched if engine is not None else None
    pop.node.close_shard_engine()
    return [client.tap.frames for client in clients], jobs


@pytest.mark.parametrize("backend", ["async", "mp"])
def test_real_backends_ship_one_encode_job_per_message(backend):
    """A real shard backend encodes each fan-out UPDATE once — one job
    per (message, ADD-PATH mode), not per session — and the merge hands
    the frame to every session: streams match the direct path's."""
    reference, _ = _co_attached_streams()
    with perf.flags(shards=2, shard_backend=backend):
        streams, jobs = _co_attached_streams()
    assert streams == reference
    assert jobs == len(reference[0])


def test_late_joiner_and_route_refresh_match_modulo_path_ids():
    """A late joiner's dump, and its ROUTE-REFRESH re-dump, leave it the
    same routes as a co-attached experiment — only path ids may differ
    (RFC 7911 ids are opaque per session).  Ids stay unique per session
    and a refresh reuses the joiner's ids."""
    scheduler = Scheduler()
    pop = _pop(scheduler)
    early = Client(scheduler, pop, 0)
    scheduler.run_for(5)
    # Churn withdraws and re-announces, so the live ids are not 1..N.
    _feed(scheduler, pop, _table_with_churn())
    late = Client(scheduler, pop, 1)
    scheduler.run_for(5)

    assert late.view() == early.view()
    assert len(late.view()) == len(pop.node.upstreams[UPSTREAM].rib)
    late_ids = [route.path_id for route in late.routes.values()]
    assert len(set(late_ids)) == len(late_ids)
    # The renaming between the two sessions is a bijection on routes.
    early_by_route = {
        route_fingerprint(route.with_path_id(None)): path_id
        for path_id, route in early.routes.items()
    }
    renaming = {
        path_id: early_by_route[route_fingerprint(route.with_path_id(None))]
        for path_id, route in late.routes.items()
    }
    assert len(set(renaming.values())) == len(renaming)

    before = dict(late.routes)
    frames_before = len(late.tap.frames)
    late.session.send_route_refresh()
    scheduler.run_for(5)
    assert len(late.tap.frames) > frames_before
    refreshed = {}
    for frame in late.tap.frames[frames_before:]:
        update = UpdateMessage.decode(frame[19:], addpath=True)
        for route in update.routes():
            refreshed[route.path_id] = route
    assert refreshed == before
    assert late.view() == early.view()


def test_path_id_table_is_empty_after_detach_and_full_withdraw():
    """Ids are released when their routes leave the Adj-RIB-In, even
    with no experiment left to tell: the shared table cannot leak."""
    scheduler = Scheduler()
    pop = _pop(scheduler)
    clients = [Client(scheduler, pop, index) for index in range(3)]
    scheduler.run_for(5)
    _feed(scheduler, pop, _table_with_churn())
    node = pop.node
    assert node.path_ids
    assert all(client.attachment.path_ids is node.path_ids
               for client in clients)
    for client in clients:
        client.session.shutdown()
    scheduler.run_for(5)
    assert not node.experiments
    rib = node.upstreams[UPSTREAM].rib
    withdrawn = [
        local_route(prefix, next_hop=IPv4Address.parse("10.0.0.1"))
        .with_path_id(path_id)
        for prefix, path_id in list(rib.keys())
    ]
    _feed(scheduler, pop, [UpdateMessage.withdraw(withdrawn)])
    assert len(rib) == 0
    assert len(node.path_ids) == 0
