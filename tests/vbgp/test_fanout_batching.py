"""Fan-out batching must be functionally invisible.

Routes sharing one attribute set are coalesced into multi-NLRI UPDATEs;
experiments must see exactly the routes of the neighbor's table
(prefixes, rewritten next hops, AS paths, one path id per route) — only
the message count drops.
"""

import pytest

from repro.bgp.attributes import local_route
from repro.netsim.addr import IPv4Prefix
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.capabilities import ExperimentProfile
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry

from tests.vbgp.test_node import EXP_PREFIX, ExperimentEndpoint, add_neighbor

PREFIXES = tuple(IPv4Prefix.parse("70.0.0.0/8").subnets(24))[:64]


def _pop(scheduler):
    pop = PointOfPresence(
        scheduler,
        PopConfig(name="testpop", pop_id=0),
        platform_asn=47065,
        platform_asns=frozenset({47065}),
        registry=GlobalNeighborRegistry(),
        enforcer_state=EnforcerState(),
    )
    pop.control_enforcer.register_experiment(
        ExperimentProfile(name="x1", asns=frozenset({47065}),
                          prefixes=(EXP_PREFIX,))
    )
    return pop


def test_batching_is_functionally_invisible():
    """Announce a table, then attach a late experiment (full-table
    fan-out), then withdraw half; the experiment ends up with exactly the
    surviving routes, carried in fewer UPDATEs than routes."""
    scheduler = Scheduler()
    pop = _pop(scheduler)
    speaker, port = add_neighbor(
        scheduler, pop, "n1", 65010, announce=PREFIXES
    )
    scheduler.run_for(5)
    experiment = ExperimentEndpoint(scheduler, pop)
    scheduler.run_for(5)
    for prefix in PREFIXES[::2]:
        speaker.withdraw(prefix)
    scheduler.run_for(5)
    local_vip = pop.node.upstreams["n1"].virtual.local_ip
    routes = experiment.routes.values()
    assert sorted(route.prefix for route in routes) == sorted(
        set(PREFIXES) - set(PREFIXES[::2]))
    assert {(route.next_hop, route.as_path.asns) for route in routes} == {
        (local_vip, (65010,))}
    # The whole point: fewer messages than per-route UPDATEs would need.
    assert len(experiment.updates) < len(PREFIXES) + len(PREFIXES[::2])


@pytest.mark.parametrize("late_join", [True, False])
def test_oversized_batches_are_chunked(late_join):
    """A fan-out larger than one UPDATE's NLRI budget must be split,
    never raise message-too-large — both for live churn and for the full
    dump a late-joining experiment receives."""
    scheduler = Scheduler()
    pop = _pop(scheduler)
    many = tuple(IPv4Prefix.parse("80.0.0.0/8").subnets(24))[:700]
    speaker, port = add_neighbor(scheduler, pop, "n1", 65010)
    if not late_join:
        experiment = ExperimentEndpoint(scheduler, pop)
        scheduler.run_for(5)
    for prefix in many:
        speaker.originate(local_route(prefix, next_hop=port.address))
    scheduler.run_for(10)
    if late_join:
        experiment = ExperimentEndpoint(scheduler, pop)
        scheduler.run_for(5)
    assert len(experiment.routes) == len(many)
    # Withdraw everything at once: 700 withdrawals > one message.
    for prefix in many:
        speaker.withdraw(prefix)
    scheduler.run_for(10)
    assert len(experiment.routes) == 0
