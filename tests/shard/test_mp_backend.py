"""Worker-process crash recovery for the mp shard backend (ISSUE 9).

Satellite 4: a worker crash *mid-batch* (hard ``os._exit`` between two
encode jobs, injected through the backend's fault seam — the parent
sees exactly what a real crash produces: EOF on the pipe, no reply)
must flow through the existing kill/resurrect backlog-replay path and
converge back to the sync reference under the full six-invariant
conformance catalog, across seeds 0–4.
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.bgp.attributes import local_route
from repro.chaos import build_chaos_world
from repro.conformance.invariants import ConformanceContext, run_invariants
from repro.netsim.addr import IPv4Prefix
from repro.parallel import live_worker_count

pytestmark = pytest.mark.timeout(300)


@pytest.fixture(autouse=True)
def _restore_perf_flags():
    saved = perf.FLAGS
    yield
    perf.FLAGS = saved
    perf.clear_caches()


def _client_prefix_snapshot(world):
    state = {}
    for name, client in world.clients.items():
        for pop_name, view in client.pops.items():
            state[f"{name}:{pop_name}"] = tuple(sorted(
                str(route.prefix) for route in view.routes.values()
            ))
    return state


def _full_catalog_ok(world):
    context = ConformanceContext.from_platform(
        world.platform,
        clients=world.clients,
        neighbor_speakers={
            name: handle.speaker
            for name, handle in world.neighbors.items()
        },
        neighbor_pops={
            name: handle.pop
            for name, handle in world.neighbors.items()
        },
    )
    reports = run_invariants(context)
    return {name: report.ok for name, report in reports.items()}


@pytest.mark.parametrize("seed", range(5))
def test_worker_crash_midbatch_replay_converges(seed):
    world = build_chaos_world(seed=seed, with_telemetry=False)
    perf.set_flags(shards=4, shard_backend="mp")
    node = world.platform.pops["west"].node
    handle = world.neighbors["transit-west"]
    engine = node._shard_engine_if_enabled()
    assert engine is not None
    backend = engine._backend
    gid = node.upstreams[handle.name].virtual.global_id
    victim = engine.shard_for_neighbor(gid)

    baseline = _client_prefix_snapshot(world)

    # Arm the crash: the victim's worker hard-exits two jobs into its
    # next batch, without replying — a genuine mid-batch death.
    backend.inject_crash(victim, after_jobs=2)

    burst = [
        IPv4Prefix.parse(f"10.10.{200 + index}.0/24")
        for index in range(24)
    ]
    for prefix in burst:
        handle.speaker.originate(
            local_route(prefix, next_hop=handle.port.address)
        )
    world.scheduler.run_for(5.0)

    # The crash landed: the shard is dead, its batch retained
    # backend-side (all-or-nothing), later items backlogged on the
    # inbox — and the dead OS process was reaped, not orphaned.
    assert not engine.workers[victim].alive
    assert engine.workers[victim].kills == 1
    assert engine.pending >= 1
    assert backend.pending_jobs(victim) >= 1
    assert engine.stats.worker_restarts >= 1

    for prefix in burst:
        handle.speaker.withdraw(prefix)
    world.scheduler.run_for(5.0)

    # Heal: retained encode jobs replay on a fresh worker first, then
    # the inbox backlog replays in ingress order.
    replayed = engine.resurrect(victim)
    assert replayed >= 1
    world.scheduler.run_for(5.0)
    assert engine.pending == 0
    assert backend.pending_jobs(victim) == 0

    # Post-heal: announce+withdraw cancelled out — back to baseline,
    # and the *full* invariant catalog holds (nothing excused).
    assert _client_prefix_snapshot(world) == baseline
    verdicts = _full_catalog_ok(world)
    assert all(verdicts.values()), verdicts

    node.close_shard_engine()
    assert live_worker_count() == 0


def test_crash_during_replay_retains_jobs_again():
    """A second crash while replaying retained jobs must not lose them:
    they stay retained and a later resurrect completes the replay."""
    world = build_chaos_world(seed=0, with_telemetry=False)
    perf.set_flags(shards=4, shard_backend="mp")
    node = world.platform.pops["west"].node
    handle = world.neighbors["transit-west"]
    engine = node._shard_engine_if_enabled()
    backend = engine._backend
    gid = node.upstreams[handle.name].virtual.global_id
    victim = engine.shard_for_neighbor(gid)

    backend.inject_crash(victim, after_jobs=1)
    prefix = IPv4Prefix.parse("10.10.250.0/24")
    handle.speaker.originate(
        local_route(prefix, next_hop=handle.port.address)
    )
    world.scheduler.run_for(5.0)
    assert backend.pending_jobs(victim) >= 1
    retained = backend.pending_jobs(victim)

    # Crash again, immediately, during the replay dispatch itself.
    backend.inject_crash(victim, after_jobs=0)
    engine.resurrect(victim)
    assert backend.pending_jobs(victim) == retained  # nothing lost

    # Third time is clean: the replay drains completely.
    replayed_pending = engine.pending
    assert replayed_pending >= 0
    engine.resurrect(victim)
    world.scheduler.run_for(5.0)
    assert backend.pending_jobs(victim) == 0
    assert engine.pending == 0

    handle.speaker.withdraw(prefix)
    world.scheduler.run_for(5.0)
    verdicts = _full_catalog_ok(world)
    assert all(verdicts.values()), verdicts
    node.close_shard_engine()
    assert live_worker_count() == 0


def test_hung_worker_fails_fast_and_recovers():
    """A wedged (not dead) worker trips the dispatch timeout and is
    treated exactly like a crash: terminated, batch retained."""
    import time

    from repro.parallel.backends import MpShardBackend
    from repro.parallel.protocol import EncodeJob
    from repro.bgp.messages import UpdateMessage
    from repro.bgp.attributes import (
        AsPath, AsPathSegment, Origin, PathAttributes, SegmentType,
    )
    from repro.netsim.addr import IPv4Address
    from repro.shard import MergeKey

    backend = MpShardBackend(1, dispatch_timeout_s=0.5)
    try:
        worker = backend._ensure_worker(0)
        # Wedge the worker: SIGSTOP freezes it without killing it.
        import os
        import signal

        os.kill(worker.process.pid, signal.SIGSTOP)
        attributes = PathAttributes(
            origin=Origin.IGP,
            as_path=AsPath(
                (AsPathSegment(SegmentType.AS_SEQUENCE, (65010,)),)
            ),
            next_hop=IPv4Address.parse("10.0.0.1"),
        )
        job = EncodeJob(
            key=MergeKey(0.0, 0, 0, 0),
            sessions=(),
            addpath=False,
            update=UpdateMessage(
                attributes=attributes,
                nlri=((IPv4Prefix.parse("10.1.0.0/24"), None),),
            ),
            counter=None,
        )
        started = time.monotonic()
        outcome = backend.dispatch({0: [job]})
        elapsed = time.monotonic() - started
        assert outcome.failed_shards == [0]
        assert elapsed < 30  # failed fast, did not wedge
        assert backend.pending_jobs(0) == 1
        # SIGCONT so terminate/join in _discard completed; verify reaped.
        assert backend.live_workers() == 0
        # Replay on a fresh worker succeeds.
        outcome = backend.resurrect_shard(0)
        assert len(outcome.completed) == 1
        assert backend.pending_jobs(0) == 0
    finally:
        backend.close()
    assert live_worker_count() == 0
