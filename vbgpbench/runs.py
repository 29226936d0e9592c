"""The benchmark's runs: end-to-end (untraced) and per-layer (traced).

A run is a series of identical rounds.  Each round builds the PoP a few
times (``setup_s``), loads the last build's tables by raw UPDATE frames
(ingest), lets late experiments join and leave (each takes the full
dump), then forwards a fixed list of data-plane packets and feeds a
fixed list of churn UPDATEs.  The traced run is one round untraced and
one traced.

Everything runs at the default ``repro.perf`` flags with the garbage
collector on, because a running PoP pays its collection costs.
"""

from __future__ import annotations

import gc
import os
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro import perf

from vbgpbench import phases
from vbgpbench.checks import Mismatches, Table, check_experiments, check_world
from vbgpbench.tracing import GcMonitor, Tracer
from vbgpbench.world import World

ROOT = Path(__file__).resolve().parent.parent

EXPERIMENTS = 8
# Fewest rounds in a run, however short ``--seconds``.
MIN_ROUNDS = 3
# Builds per round; only the last one is loaded and driven.
SETUP_BUILDS_PER_ROUND = 2
# Late joiners per round: each attaches, takes its dump and detaches.
JOINS_PER_ROUND = 4


class RefusedRun(RuntimeError):
    """The run would not measure the shipped program."""


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload: the table each upstream loads, and how many
    packets and churn UPDATEs every round replays after the joins."""

    name: str
    upstreams: int
    prefixes: int  # per upstream table
    forward_ops: int
    churn_ops: int


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("fulltable_ingest", upstreams=1, prefixes=24_000,
                 forward_ops=2_000, churn_ops=1_000),
        Workload("churn_fanout", upstreams=1, prefixes=10_000,
                 forward_ops=1_000, churn_ops=4_000),
        Workload("dataplane_forward", upstreams=4, prefixes=3_000,
                 forward_ops=20_000, churn_ops=1_000),
    )
}


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> dict:
    """The ``env`` block; refuses non-default ``repro.perf`` flags."""
    if perf.FLAGS != perf.PerfFlags():
        raise RefusedRun(f"repro.perf.FLAGS differ from their defaults: "
                         f"{perf.FLAGS}")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "seed": seed,
        "gc_enabled": gc.isenabled(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "perf_flags": asdict(perf.FLAGS),
    }


def _quantile(values: list[float], share: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def _fastest(rounds: list[list[float]]) -> list[float]:
    """Per operation, its fastest time over the rounds.

    A shared host's speed can switch between two levels 1.5x apart and
    stay at either for several seconds, so one pass over the inputs
    measures the host as much as the program.  Every round replays the
    same operations on an identical fresh world, at another moment of
    the run, so keeping each operation's best time leaves the program's
    own cost, its collector pauses included (the collector runs at the
    same operations in every round).
    """
    return [min(times) for times in zip(*rounds)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass(frozen=True)
class Inputs:
    """Everything a run feeds the PoP, generated from the seed."""

    tables: list[phases.FeedTable]
    churn: list[bytes]
    after_churn: list[Table]  # the feeds' announced tables after churn
    packets: list[phases.Packet]


def _make_inputs(workload: Workload, seed: int) -> Inputs:
    """The run's inputs, frozen out of the collector's view.

    The benchmark's own inputs stay alive for the whole run; freezing
    them keeps every collection the PoP triggers from also walking them,
    so the program pays only for its own objects.
    """
    tables = phases.make_tables(seed, workload.upstreams, workload.prefixes)
    churn, after_churn = phases.churn_frames(tables, workload.churn_ops)
    packets = phases.make_packets(
        World(workload.upstreams, EXPERIMENTS), tables,
        phases.derive_seed(seed, "packets"), workload.forward_ops)
    gc.collect()
    gc.freeze()
    return Inputs(tables, churn, after_churn, packets)


def _build(workload: Workload) -> tuple[World, float]:
    # The previous world is cyclic garbage; collect it now rather than
    # inside the next world's timed phases.
    gc.collect()
    start = time.perf_counter()
    world = World(workload.upstreams, EXPERIMENTS)
    return world, time.perf_counter() - start


@dataclass
class Round:
    """Per-operation times of one round."""

    setup_s: list[float]
    ingest: phases.IngestSample
    joins_s: list[float]
    forward_s: Sequence[float]
    churn_s: Sequence[float]

    @property
    def ops(self) -> int:
        """UPDATE frames, joins and packets fed."""
        return (len(self.ingest.seconds) + len(self.joins_s)
                + len(self.forward_s) + len(self.churn_s))

    @property
    def wall_s(self) -> float:
        """Time spent in the round's operations."""
        return (sum(self.ingest.seconds) + sum(self.joins_s)
                + sum(self.forward_s) + sum(self.churn_s))


def _round(workload: Workload, inputs: Inputs, mismatches: Mismatches,
           tracer: Optional[Tracer] = None) -> tuple[Round, World]:
    """Build, ingest, join, forward and churn on a fresh world.

    Every forwarded packet is checked as it leaves; :func:`_check` checks
    the rest.  With a tracer every operation is a root span.
    """

    def root(fn, kind):
        return fn if tracer is None else tracer.root(fn, kind)

    setup = [_build(workload)[1] for _ in range(SETUP_BUILDS_PER_ROUND - 1)]
    world, setup_s = _build(workload)
    setup.append(setup_s)
    ingest = phases.ingest(world, inputs.tables,
                           step=root(world.feed_frame, "update"))
    joins = []
    for _ in range(JOINS_PER_ROUND):
        joins.append(phases.late_join(world, step=root(phases.join, "join")))
        world.detach_experiment(world.experiments[-1])
    forwarded = phases.forward(world, inputs.packets, mismatches,
                               step=root(world.push_frame, "packet"))
    churned = phases.churn(world, inputs.churn,
                           step=root(world.feed_frame, "update"))
    return Round(setup, ingest, joins, forwarded.seconds,
                 churned.seconds), world


def _check(world: World, inputs: Inputs, mismatches: Mismatches) -> None:
    """Check a world after its round: each late joiner's stream against
    the tables it joined to, every other experiment and each kernel table
    against the state the churn left."""
    joiners = world.attached[EXPERIMENTS:]
    check_experiments(world, [table.expected for table in inputs.tables],
                      mismatches, joiners)
    check_world(world, inputs.after_churn, mismatches)


def run_untraced(workload: Workload, seed: int, seconds: float):
    """End-to-end metrics: (metrics, attempted, mismatches, samples).

    Rounds replay the same seeded operations, each on a fresh world,
    until ``seconds`` have passed (at least ``MIN_ROUNDS``), and every
    metric but RSS takes each operation's best time over the rounds.
    The last round's world is checked.
    """
    inputs = _make_inputs(workload, seed)
    mismatches = Mismatches()
    deadline = time.perf_counter() + seconds
    done = []
    world = None
    while len(done) < MIN_ROUNDS or time.perf_counter() < deadline:
        world = None  # collected by the next build, outside any timing
        round_, world = _round(workload, inputs, mismatches)
        done.append(round_)
    _check(world, inputs, mismatches)
    first = done[0].ingest
    forward = _fastest([r.forward_s for r in done])
    churn = _fastest([r.churn_s for r in done])
    setup = [s for r in done for s in r.setup_s]
    joins = [s for r in done for s in r.joins_s]
    us = 1e6
    metrics = {
        "setup_s": _metric(min(setup), "s"),
        "ingest_prefixes_per_s": _metric(
            first.prefixes / sum(_fastest([r.ingest.seconds for r in done])),
            "prefixes/s"),
        "ingest_rss_bytes_per_prefix": _metric(
            first.rss_bytes / first.prefixes, "B/prefix"),
        "join_prefixes_per_s": _metric(
            first.prefixes / min(joins), "prefixes/s"),
        "churn_updates_per_s": _metric(len(churn) / sum(churn), "updates/s"),
        "churn_latency_p50_us": _metric(_quantile(churn, 0.5) * us, "us"),
        "forward_packets_per_s": _metric(
            len(forward) / sum(forward), "packets/s"),
        "forward_latency_p50_us": _metric(_quantile(forward, 0.5) * us, "us"),
    }
    samples = {"rounds": len(done), "setup_builds": len(setup),
               "ingest_frames": len(first.seconds), "joins": len(joins),
               "churn_updates": len(churn), "forward_packets": len(forward)}
    attempted = sum(r.ops for r in done)
    return metrics, attempted, mismatches, samples


def run_traced(workload: Workload, seed: int, spans_out: Optional[str]):
    """Per-layer metrics of one round, plus the tracing overhead.

    The round runs once untraced, which also gives the latency tails,
    and once traced.  Counts per UPDATE take only the spans and bytes
    under UPDATE roots, so a join's dump is not spread over the updates.
    """
    inputs = _make_inputs(workload, seed)
    mismatches = Mismatches()
    untraced, world = _round(workload, inputs, mismatches)
    _check(world, inputs, mismatches)
    world = None
    tracer = Tracer()
    tracer.install()
    try:
        with GcMonitor(tracer) as gc_monitor:
            traced, world = _round(workload, inputs, mismatches,
                                   tracer=tracer)
    finally:
        tracer.uninstall()
    counters = _program_counters(world)
    _check(world, inputs, mismatches)
    self_s, wall = tracer.self_times()
    if spans_out:
        tracer.write_spans(spans_out)
    spans = tracer.span_counts()
    update_spans = tracer.span_counts("update")
    per_update = max(1, len(traced.ingest.seconds) + len(traced.churn_s))
    per_packet = max(1, len(traced.forward_s))
    tallies = tracer.results
    lpm_lookups = counters["lpm_hits"] + counters["lpm_misses"]
    us = 1e6
    metrics = {
        "churn_latency_p99_us": (
            _quantile(untraced.churn_s, 0.99) * us, "us"),
        "forward_latency_p99_us": (
            _quantile(untraced.forward_s, 0.99) * us, "us"),
        "bgp.transport.frames_out_per_update": (
            update_spans["bgp.transport.send"] / per_update, "1/update"),
        "bgp.transport.bytes_out_per_update": (
            tallies.get(("bgp.transport.send", "update"), 0) / per_update,
            "B/update"),
        "bgp.transport.send_self_s": (self_s["bgp.transport.send"], "s"),
        "sim.scheduler.events_per_update": (
            tallies.get(("sim.scheduler", "update"), 0) / per_update,
            "1/update"),
        "sim.scheduler.events_per_packet": (
            tallies.get(("sim.scheduler", "packet"), 0) / per_packet,
            "1/packet"),
        "sim.scheduler.self_s": (self_s["sim.scheduler"], "s"),
        "bgp.messages.decode_self_s": (self_s["bgp.messages.decode"], "s"),
        "bgp.messages.encode_calls_per_update": (
            update_spans["bgp.messages.encode"] / per_update, "1/update"),
        "bgp.messages.encode_self_s": (self_s["bgp.messages.encode"], "s"),
        "bgp.session.receive_self_s": (self_s["bgp.session.receive"], "s"),
        "bgp.session.send_self_s": (self_s["bgp.session.send"], "s"),
        "bgp.session.notifications": (counters["notifications"], "count"),
        "vbgp.node.self_s": (self_s["vbgp.node"], "s"),
        "vbgp.node.path_id_calls_per_update": (
            update_spans["vbgp.node.path_id"] / per_update, "1/update"),
        "vbgp.node.path_id_self_s": (self_s["vbgp.node.path_id"], "s"),
        "vbgp.node.path_id_entries": (counters["path_id_entries"], "count"),
        "netsim.stack.receive_self_s": (self_s["netsim.stack.receive"], "s"),
        "netsim.stack.route_ops_self_s": (
            self_s["netsim.stack.route_ops"], "s"),
        "netsim.stack.lookup_route_self_s": (
            self_s["netsim.stack.lookup_route"], "s"),
        "netsim.stack.send_frame_self_s": (
            self_s["netsim.stack.send_frame"], "s"),
        "netsim.stack.dropped_no_route": (counters["dropped_no_route"], "count"),
        "netsim.link.self_s": (self_s["netsim.link"], "s"),
        "netsim.lpm.insert_calls": (spans["netsim.lpm.insert"], "count"),
        "netsim.lpm.insert_self_s": (self_s["netsim.lpm.insert"], "s"),
        "netsim.lpm.remove_self_s": (self_s["netsim.lpm.remove"], "s"),
        "netsim.lpm.lookup_calls": (spans["netsim.lpm.lookup"], "count"),
        "netsim.lpm.lookup_self_s": (self_s["netsim.lpm.lookup"], "s"),
        "netsim.lpm.cache_hit_ratio": (
            counters["lpm_hits"] / max(1, lpm_lookups), "ratio"),
        "security.data.self_s": (self_s["security.data"], "s"),
        "security.data.drops": (counters["data_drops"], "count"),
        "gc.pause_s": (gc_monitor.pause_s, "s"),
        "gc.gen2_collections": (gc_monitor.gen2, "count"),
        "bench.load.self_s": (self_s["bench.load"], "s"),
        "bench.sink.self_s": (self_s["bench.sink"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.self_sum_fraction": (sum(self_s.values()) / wall, "ratio"),
        "trace.overhead_fraction": (wall / untraced.wall_s - 1, "ratio"),
    }
    metrics = {name: _metric(value, unit)
               for name, (value, unit) in metrics.items()}
    attempted = untraced.ops + traced.ops
    samples = {"traced_ops": traced.ops, "spans": len(tracer.start),
               "missing_hooks": tracer.missing}
    return metrics, attempted, mismatches, samples


def _program_counters(world) -> dict:
    """Program-side counters and sizes, read after the traced round."""
    pop = world.pop
    node = pop.node
    sessions = [exp.session for exp in node.experiments.values()]
    sessions += [up.session for up in node.upstreams.values()]
    tables = list(pop.stack.tables.values()) + [node.exp_prefixes]
    return {
        "notifications": sum(
            session.stats.notifications_sent
            + session.stats.notifications_received for session in sessions),
        "path_id_entries": sum(
            len(getattr(exp, "path_ids", ()))
            for exp in node.experiments.values()),
        "dropped_no_route": pop.stack.counters["dropped_no_route"],
        "data_drops": pop.data_enforcer.frames_dropped,
        "lpm_hits": sum(table.cache_hits for table in tables),
        "lpm_misses": sum(table.cache_misses for table in tables),
    }
