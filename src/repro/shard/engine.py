"""The sharded vBGP fan-out engine: partition → workers → merge.

The paper's mux fans every route learned from every neighbor out to
every experiment (§4.2–§4.4) in one serial loop — the reproduction's
measured bottleneck (``BENCH_update_load``).  This module scales that
loop *out*: a :class:`ShardedFanout` splits the fan-out across N worker
shards using a deterministic :class:`~repro.shard.partition.PartitionFn`
and recombines the per-shard outputs — RIB/kernel-table ops and
announced wire bytes — through a :class:`MergeLayer` into one ordered
stream.

Determinism model
-----------------

The reproduction is a discrete-event simulation, so shard *parallelism*
is modeled, not threaded: work items execute deterministically in
global ingress order, each item's wall-clock cost is charged to the
shard that owns it, and the modeled elapsed time of a drain window is
``max(per-shard busy) + merge cost`` — exactly the wall clock N worker
processes (each owning a subset of neighbor sessions) would exhibit.
What *is* real, not modeled:

* ops are physically buffered per shard and only applied at
  :meth:`ShardedFanout.flush` in stable merge order,
* a killed shard stops processing entirely — its queued work items
  accumulate in its inbox until :meth:`ShardedFanout.resurrect` replays
  them (the chaos ``shard-kill`` scenario), and
* every stateful effect (kernel mutation, session send, counter bump)
  flows through the one merged stream.

Merge ordering
--------------

Every op carries a :class:`MergeKey` ``(sim_time, seq, shard_id,
emit)``:

* ``sim_time`` — scheduler time at which the triggering update entered
  the engine,
* ``seq`` — the *global* ingress sequence number stamped by the
  partition layer (one per work item, monotonically increasing),
* ``shard_id`` — the worker that produced the op,
* ``emit`` — the op's index within its work item.

``seq`` is global rather than per-shard deliberately: it already
totally orders work items in arrival order, which makes the merged
stream **independent of the shard count** — the property the
differential harness proves at shards ∈ {1, 2, 4, 8}.  ``shard_id``
participates only as a tiebreaker (ops from one item share one shard by
construction) and for traceability in telemetry.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, NamedTuple, Optional

from repro.shard.partition import PartitionFn, stable_mix64, stable_str_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import TelemetryHub

__all__ = [
    "DirectExecutor",
    "FanoutOp",
    "MergeKey",
    "MergeLayer",
    "ShardCostModel",
    "ShardStats",
    "ShardWorker",
    "ShardedFanout",
]

_perf_counter = _time.perf_counter

_ENCODE_JOB_CLS = None


def _encode_job_cls():
    """Late-bound :class:`repro.parallel.protocol.EncodeJob`.

    ``repro.parallel`` imports :class:`MergeKey` from this module, so
    the reference must resolve lazily to avoid an import cycle.  The
    model backend never touches it.
    """
    global _ENCODE_JOB_CLS
    if _ENCODE_JOB_CLS is None:
        from repro.parallel.protocol import EncodeJob
        _ENCODE_JOB_CLS = EncodeJob
    return _ENCODE_JOB_CLS


#: Bucket boundaries for the merge-latency histogram (seconds).
MERGE_LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)


class MergeKey(NamedTuple):
    """Stable merge-ordering key — see the module docstring for why
    ``seq`` (global ingress order) precedes ``shard_id``."""

    sim_time: float
    seq: int
    shard_id: int
    emit: int


@dataclass
class FanoutOp:
    """One buffered output operation awaiting merge.

    ``kind`` is one of ``"add_route"`` (payload: a
    :class:`~repro.netsim.stack.KernelRoute`), ``"remove_route"``
    (payload: a prefix), ``"send_job"`` (payload: an
    :class:`~repro.parallel.protocol.EncodeJob` awaiting a backend
    dispatch — never reaches the merge layer) or ``"send_wire"``
    (payload: one encoded UPDATE frame).  A send op's ``target`` is the
    tuple of sessions that all receive the same frame.  ``counter``
    names the :attr:`VbgpNode.counters` key the merge layer bumps per
    session the op reaches.
    """

    key: MergeKey
    kind: str
    payload: object
    table_id: Optional[int] = None
    target: object = None
    counter: Optional[str] = None


class DirectExecutor:
    """The unsharded executor: apply every effect immediately.

    This is the seam the sharded engine replaces — the vBGP fan-out
    code calls ``ex.add_route`` / ``ex.remove_route`` /
    ``ex.send_many`` and never touches the stack or sessions directly,
    so the exact same pipeline body runs sharded or not.
    """

    __slots__ = ("node",)

    def __init__(self, node) -> None:
        self.node = node

    def add_route(self, route, table_id: Optional[int] = None,
                  counter: str = "routes_installed") -> None:
        self.node.stack.add_route(route, table_id=table_id)
        self.node.counters[counter] += 1

    def remove_route(self, prefix, table_id: Optional[int] = None,
                     counter: str = "routes_removed") -> None:
        if self.node.stack.remove_route(prefix, table_id=table_id):
            self.node.counters[counter] += 1

    def send_many(self, sessions, message, counter: str) -> None:
        """Encode ``message`` once per ADD-PATH mode and hand the same
        frame to every session in ``sessions`` (all established)."""
        frames = {}
        for session in sessions:
            addpath = session.addpath_active
            frame = frames.get(addpath)
            if frame is None:
                frame = frames[addpath] = message.encode(addpath=addpath)
            session.send_wire(frame)
        self.node.counters[counter] += len(sessions)


class _ShardEmitter:
    """The buffering executor bound to one worker during item processing."""

    __slots__ = ("worker", "sim_time", "seq", "emit", "collect_jobs")

    def __init__(self, worker: "ShardWorker") -> None:
        self.worker = worker
        self.sim_time = 0.0
        self.seq = 0
        self.emit = 0
        # Real backends (async/mp) set this: sends become EncodeJobs
        # dispatched to workers instead of being encoded inline.
        self.collect_jobs = False

    def bind(self, sim_time: float, seq: int) -> None:
        self.sim_time = sim_time
        self.seq = seq
        self.emit = 0

    def _key(self) -> MergeKey:
        key = MergeKey(self.sim_time, self.seq, self.worker.shard_id,
                       self.emit)
        self.emit += 1
        return key

    def add_route(self, route, table_id: Optional[int] = None,
                  counter: str = "routes_installed") -> None:
        self.worker.buffer.append(FanoutOp(
            key=self._key(), kind="add_route", payload=route,
            table_id=table_id, counter=counter,
        ))

    def remove_route(self, prefix, table_id: Optional[int] = None,
                     counter: str = "routes_removed") -> None:
        self.worker.buffer.append(FanoutOp(
            key=self._key(), kind="remove_route", payload=prefix,
            table_id=table_id, counter=counter,
        ))

    def send_many(self, sessions, message, counter: str) -> None:
        """One buffered send op per ADD-PATH mode among ``sessions``.

        A real backend (``collect_jobs``) gets one encode job per
        (message, mode) however many sessions share it; otherwise the
        encode is charged to *this shard*, so it parallelizes.
        """
        groups: dict = {}
        for session in sessions:
            groups.setdefault(session.addpath_active, []).append(session)
        for addpath, group in groups.items():
            key = self._key()
            targets = tuple(group)
            if self.collect_jobs:
                kind, payload = "send_job", _encode_job_cls()(
                    key, targets, addpath, message, counter)
            else:
                kind, payload = "send_wire", message.encode(addpath=addpath)
            self.worker.buffer.append(FanoutOp(
                key=key, kind=kind, payload=payload, target=targets,
                counter=counter,
            ))


@dataclass
class _WorkItem:
    """One partitioned unit of fan-out work."""

    seq: int
    sim_time: float
    neighbor: str
    update: object
    shard_id: int


@dataclass
class _SubUpdate:
    """A prefix-partitioned slice of one inbound UPDATE (order-preserving)."""

    withdrawn: List[tuple] = field(default_factory=list)
    announced: List[object] = field(default_factory=list)

    def routes(self) -> List[object]:
        return self.announced


@dataclass
class ShardWorker:
    """One modeled worker shard: inbox, op buffer, liveness, accounting."""

    shard_id: int
    alive: bool = True
    inbox: deque = field(default_factory=deque)
    buffer: List[FanoutOp] = field(default_factory=list)
    items_processed: int = 0
    updates_emitted: int = 0
    busy_s: float = 0.0
    window_busy_s: float = 0.0
    kills: int = 0

    @property
    def queue_depth(self) -> int:
        return len(self.inbox)


@dataclass
class ShardStats:
    """Aggregate engine accounting (feeds telemetry and the benches)."""

    items: int = 0
    splits: int = 0
    drains: int = 0
    ops_applied: int = 0
    ops_dropped: int = 0
    backlog_replayed: int = 0
    # Bounded-inbox shedding (DESIGN.md §6i).  ``withdrawals_shed`` must
    # stay 0 by construction — asserted by the
    # ``no_withdrawal_loss_under_shed`` invariant.
    items_shed: int = 0
    routes_shed: int = 0
    withdrawals_shed: int = 0
    merge_s: float = 0.0
    modeled_elapsed_s: float = 0.0
    # Real-backend accounting (DESIGN.md §6j); all stay 0 under
    # ``shard_backend="model"``.
    dispatches: int = 0
    jobs_dispatched: int = 0
    dispatch_s: float = 0.0
    worker_restarts: int = 0

    def serial_s(self, workers: Iterable[ShardWorker]) -> float:
        """What the same work would have cost on one shard."""
        return sum(worker.busy_s for worker in workers) + self.merge_s

    def speedup(self, workers: Iterable[ShardWorker]) -> float:
        """Modeled scale-out factor versus serial execution."""
        if self.modeled_elapsed_s <= 0.0:
            return 1.0
        return self.serial_s(workers) / self.modeled_elapsed_s


class MergeLayer:
    """Applies a merged op stream against the node, in key order.

    The merge is *stable*: ops are sorted by :class:`MergeKey`, which is
    shard-count-invariant (see module docstring), so the kernel tables,
    counters, and announced wire bytes that leave this layer are
    byte-identical for any shard count.
    """

    def __init__(self, node, stats: ShardStats) -> None:
        self.node = node
        self.stats = stats

    def apply(self, ops: List[FanoutOp]) -> int:
        node = self.node
        stack = node.stack
        counters = node.counters
        applied = 0
        for op in ops:
            if op.kind == "send_wire":
                for session in op.target:
                    if not session.established:
                        # The session died between emit and merge (only
                        # possible for backlog replayed across a fault);
                        # the (re-)established handler re-syncs full
                        # state.
                        self.stats.ops_dropped += 1
                        continue
                    session.send_wire(op.payload)
                    if op.counter is not None:
                        counters[op.counter] += 1
                    applied += 1
            elif op.kind == "add_route":
                stack.add_route(op.payload, table_id=op.table_id)
                if op.counter is not None:
                    counters[op.counter] += 1
                applied += 1
            elif op.kind == "remove_route":
                removed = stack.remove_route(op.payload,
                                             table_id=op.table_id)
                if removed and op.counter is not None:
                    counters[op.counter] += 1
                applied += 1
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown op kind {op.kind!r}")
        self.stats.ops_applied += applied
        return applied


class ShardedFanout:
    """Partitioned, merge-ordered execution of the vBGP fan-out.

    ``auto_drain=True`` (the default, and what the ``shards=N`` knob
    uses) flushes the merge layer after every submitted update, so
    external timing is indistinguishable from the unsharded pipeline.
    Benchmarks set ``auto_drain=False`` and flush per arrival window to
    model concurrent arrival across neighbor sessions.
    """

    def __init__(
        self,
        node,
        shard_count: int,
        partition: PartitionFn,
        telemetry: Optional["TelemetryHub"] = None,
        auto_drain: bool = True,
        backend: str = "model",
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if partition.shard_count != shard_count:
            raise ValueError("partition/shard_count mismatch")
        self.node = node
        self.shard_count = shard_count
        self.partition = partition
        self.auto_drain = auto_drain
        self.backend_name = backend
        if backend == "model":
            self._backend = None
        else:
            # Imported late: repro.parallel depends on this module.
            from repro.parallel.backends import make_backend
            self._backend = make_backend(backend, shard_count)
        self.workers = [ShardWorker(shard_id=i) for i in range(shard_count)]
        self._emitters = [_ShardEmitter(worker) for worker in self.workers]
        if self._backend is not None:
            for emitter in self._emitters:
                emitter.collect_jobs = True
        # Bounded inboxes (§6i, opt-in): beyond ``inbox_limit`` queued
        # items per worker, announcement-only items are shed oldest
        # first; ``on_shed(routes)`` reports each shed to the overload
        # governor.  ``None`` (the default) keeps inboxes unbounded.
        self.inbox_limit: Optional[int] = None
        self.on_shed = None
        self.stats = ShardStats()
        self.merge = MergeLayer(node, self.stats)
        self._next_seq = 0
        self._m_merge_latency = None
        self._m_dispatch_latency = None
        if telemetry is not None:
            self._init_telemetry(telemetry)

    # -- telemetry ---------------------------------------------------------

    def _init_telemetry(self, telemetry: "TelemetryHub") -> None:
        registry = telemetry.registry
        node_name = self.node.name
        depth = registry.gauge(
            "vbgp_shard_queue_depth",
            "Work items queued per fan-out shard (scrape-time)",
            labels=("node", "shard"),
        )
        busy = registry.gauge(
            "vbgp_shard_busy_seconds",
            "Cumulative wall-clock charged to each fan-out shard",
            labels=("node", "shard"),
        )
        items = registry.gauge(
            "vbgp_shard_items_processed",
            "Work items (update slices) processed per fan-out shard",
            labels=("node", "shard"),
        )
        updates = registry.gauge(
            "vbgp_shard_updates_emitted",
            "UPDATE sends emitted per fan-out shard",
            labels=("node", "shard"),
        )
        alive = registry.gauge(
            "vbgp_shard_alive",
            "1 while the shard worker is alive, 0 while killed",
            labels=("node", "shard"),
        )
        for worker in self.workers:
            label = str(worker.shard_id)
            depth.labels(node_name, label).set_function(
                lambda w=worker: w.queue_depth
            )
            busy.labels(node_name, label).set_function(
                lambda w=worker: w.busy_s
            )
            items.labels(node_name, label).set_function(
                lambda w=worker: w.items_processed
            )
            updates.labels(node_name, label).set_function(
                lambda w=worker: w.updates_emitted
            )
            alive.labels(node_name, label).set_function(
                lambda w=worker: 1.0 if w.alive else 0.0
            )
        self._m_merge_latency = registry.histogram(
            "vbgp_shard_merge_latency_seconds",
            "Wall-clock per merge drain (sort + ordered apply)",
            labels=("node",),
            buckets=MERGE_LATENCY_BUCKETS,
        ).labels(node_name)
        self._m_dispatch_latency = registry.histogram(
            "vbgp_shard_dispatch_latency_seconds",
            "Wall-clock per backend dispatch round "
            "(ship batches + worker encode + collect)",
            labels=("node", "backend"),
            buckets=MERGE_LATENCY_BUCKETS,
        ).labels(node_name, self.backend_name)

    # -- introspection -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Work items queued on (dead or not-yet-pumped) shards, plus
        encode jobs a real backend retained across a worker crash."""
        pending = sum(len(worker.inbox) for worker in self.workers)
        if self._backend is not None:
            pending += sum(
                self._backend.pending_jobs(worker.shard_id)
                for worker in self.workers
            )
        return pending

    @property
    def buffered_ops(self) -> int:
        return sum(len(worker.buffer) for worker in self.workers)

    def shard_for_neighbor(self, global_id: int) -> int:
        return self.partition.shard_for_neighbor(global_id)

    def status(self) -> List[dict]:
        """Per-shard status rows (used by the PoP and the CLI)."""
        return [
            {
                "shard": worker.shard_id,
                "alive": worker.alive,
                "queue_depth": worker.queue_depth,
                "items_processed": worker.items_processed,
                "updates_emitted": worker.updates_emitted,
                "busy_s": worker.busy_s,
                "kills": worker.kills,
            }
            for worker in self.workers
        ]

    # -- fault injection (the chaos shard-kill scenario) -------------------

    def kill(self, shard_id: int) -> None:
        """Stop a worker: its queued and future items accumulate.

        With a real backend the shard's OS worker (mp) is terminated
        and joined *now* — a kill with in-flight work must never leave
        an orphaned process or a pending future behind.
        """
        worker = self.workers[shard_id]
        if worker.alive:
            worker.alive = False
            worker.kills += 1
        if self._backend is not None:
            self._backend.on_kill(shard_id)

    def resurrect(self, shard_id: int) -> int:
        """Revive a worker and replay its backlog through the merge.

        Returns the number of backlog items replayed.  Replay preserves
        ingress (``seq``) order within the backlog, so the healed state
        converges to exactly what in-order processing would have built.

        With a real backend, encode jobs the dead worker never finished
        replay *first* (they carry earlier ``seq`` than anything still
        in the inbox — their control phase already ran), on a freshly
        spawned worker; the inbox backlog then replays as before.
        """
        worker = self.workers[shard_id]
        worker.alive = True
        replayed_frames = 0
        if self._backend is not None:
            outcome = self._backend.resurrect_shard(shard_id)
            for shard, busy in outcome.shard_busy.items():
                self.workers[shard].busy_s += busy
                self.workers[shard].window_busy_s += busy
            for job, frame in outcome.completed:
                worker.buffer.append(FanoutOp(
                    key=job.key, kind="send_wire", payload=frame,
                    target=job.sessions, counter=job.counter,
                ))
            replayed_frames = len(outcome.completed)
            self.stats.worker_restarts = getattr(
                self._backend, "worker_restarts", 0
            )
        backlog = len(worker.inbox)
        if backlog:
            self._pump()
        if backlog or replayed_frames:
            self.flush()
            self.stats.backlog_replayed += backlog
        return backlog

    def close(self) -> None:
        """Release backend resources (worker processes, event loop).

        Idempotent; the model backend has nothing to release.  Buffered
        ops are *not* flushed — callers drain before closing.
        """
        if self._backend is not None:
            self._backend.close()
            self._backend = None
            # Degrade gracefully if somehow used after close: inline
            # encode (the reference path) instead of stranding jobs.
            for emitter in self._emitters:
                emitter.collect_jobs = False

    # -- the pipeline ------------------------------------------------------

    def submit(self, neighbor, update) -> None:
        """Partition one inbound UPDATE and run the alive shards."""
        now = self.node.scheduler.now
        for shard_id, sub_update in self._split(neighbor, update):
            item = _WorkItem(
                seq=self._next_seq,
                sim_time=now,
                neighbor=neighbor.name,
                update=sub_update,
                shard_id=shard_id,
            )
            self._next_seq += 1
            self.workers[shard_id].inbox.append(item)
            self.stats.items += 1
            self._enforce_inbox_limit(self.workers[shard_id])
        self._pump()
        if self.auto_drain:
            self.flush()

    def _split(self, neighbor, update):
        partition = self.partition
        if not partition.splits_updates():
            shard = partition.shard_for_neighbor(neighbor.virtual.global_id)
            # The whole UPDATE passes through untouched: multi-NLRI
            # packing (and the encode memo) are preserved byte-for-byte.
            return ((shard, update),)
        buckets: dict[int, _SubUpdate] = {}
        order: List[int] = []

        def bucket(shard: int) -> _SubUpdate:
            sub = buckets.get(shard)
            if sub is None:
                sub = buckets[shard] = _SubUpdate()
                order.append(shard)
            return sub

        for prefix, path_id in update.withdrawn:
            bucket(partition.shard_for_prefix(prefix)).withdrawn.append(
                (prefix, path_id)
            )
        for route in update.routes():
            bucket(partition.shard_for_prefix(route.prefix)).announced.append(
                route
            )
        if len(order) > 1:
            self.stats.splits += 1
        return tuple((shard, buckets[shard]) for shard in order)

    def _enforce_inbox_limit(self, worker: ShardWorker) -> None:
        """Shed announcement-only items past the inbox bound.

        Sheds oldest first (BGP's last-message-wins makes the survivors
        state-convergent) and never touches an item carrying withdrawals
        or no announcements at all — if only unsheddable items remain
        the inbox is allowed to overshoot the bound rather than lose a
        withdrawal.
        """
        limit = self.inbox_limit
        if limit is None:
            return
        while len(worker.inbox) > limit:
            shed_index = None
            for index, item in enumerate(worker.inbox):
                update = item.update
                if getattr(update, "withdrawn", ()):
                    continue
                if not update.routes():
                    continue
                shed_index = index
                break
            if shed_index is None:
                return
            item = worker.inbox[shed_index]
            routes = len(item.update.routes())
            del worker.inbox[shed_index]
            self.stats.items_shed += 1
            self.stats.routes_shed += routes
            if self.on_shed is not None:
                self.on_shed(routes)

    def _pump(self) -> None:
        """Process every alive worker's inbox, in global ingress order."""
        pending: List[_WorkItem] = []
        for worker in self.workers:
            if worker.alive and worker.inbox:
                pending.extend(worker.inbox)
                worker.inbox.clear()
        if not pending:
            return
        pending.sort(key=lambda item: item.seq)
        node = self.node
        for item in pending:
            neighbor = node.upstreams.get(item.neighbor)
            worker = self.workers[item.shard_id]
            if neighbor is None:
                worker.items_processed += 1
                continue
            emitter = self._emitters[item.shard_id]
            emitter.bind(item.sim_time, item.seq)
            buffered_before = len(worker.buffer)
            started = _perf_counter()
            node._process_upstream_changes(neighbor, item.update, emitter)
            elapsed = _perf_counter() - started
            worker.busy_s += elapsed
            worker.window_busy_s += elapsed
            worker.items_processed += 1
            # Only the ops this item appended are new; the buffer may
            # still hold sends from earlier (undrained) items in batch
            # mode, so count the tail rather than the whole buffer.
            worker.updates_emitted += sum(
                len(op.target) for op in worker.buffer[buffered_before:]
                if op.kind in ("send_wire", "send_job")
            )

    def _dispatch_jobs(self) -> None:
        """Fan buffered encode jobs out to the real backend.

        Runs at :meth:`flush` time so one drain window's jobs cross the
        backend in a single dispatch round (one batch per shard — the
        mp backend amortises its IPC over the whole window).  The
        control phase already ran in global ingress order, so the jobs
        are pure: each is an (update, addpath) pair whose wire bytes
        are order-independent.  Completed jobs are rewritten in place
        as ``send_wire`` ops (MergeKey untouched — the merged stream
        keeps its backend-invariant order); a shard whose worker died
        keeps its whole batch retained backend-side and is marked dead
        for the kill/resurrect replay path.
        """
        jobs_by_shard: dict[int, list] = {}
        ops_by_job: dict[int, FanoutOp] = {}
        for worker in self.workers:
            for op in worker.buffer:
                if op.kind == "send_job":
                    job = op.payload
                    jobs_by_shard.setdefault(
                        worker.shard_id, []
                    ).append(job)
                    ops_by_job[id(job)] = op
        # Jobs emitted before a kill() landed: retain them backend-side
        # (their control phase is committed work) instead of handing
        # them to a worker the kill already reaped — resurrect_shard
        # replays them on the fresh worker.
        for shard_id in [
            shard for shard in jobs_by_shard
            if not self.workers[shard].alive
        ]:
            self._backend.retain_jobs(
                shard_id, jobs_by_shard.pop(shard_id)
            )
            stranded = self.workers[shard_id]
            stranded.buffer[:] = [
                op for op in stranded.buffer if op.kind != "send_job"
            ]
        if not jobs_by_shard:
            return
        started = _perf_counter()
        outcome = self._backend.dispatch(jobs_by_shard)
        elapsed = _perf_counter() - started
        self.stats.dispatches += 1
        self.stats.jobs_dispatched += sum(
            len(jobs) for jobs in jobs_by_shard.values()
        )
        self.stats.dispatch_s += elapsed
        if self._m_dispatch_latency is not None:
            self._m_dispatch_latency.observe(elapsed)
        for shard_id, busy in outcome.shard_busy.items():
            shard_worker = self.workers[shard_id]
            shard_worker.busy_s += busy
            shard_worker.window_busy_s += busy
        for job, frame in outcome.completed:
            op = ops_by_job[id(job)]
            op.kind = "send_wire"
            op.payload = frame
        for shard_id in outcome.failed_shards:
            failed = self.workers[shard_id]
            # The crashed batch is retained backend-side as EncodeJobs;
            # drop the stranded ops so the merge only sees finished
            # work.  resurrect() re-dispatches and re-materialises them
            # with their original MergeKeys.
            failed.buffer[:] = [
                op for op in failed.buffer if op.kind != "send_job"
            ]
            if failed.alive:
                failed.alive = False
                failed.kills += 1
        self.stats.worker_restarts = getattr(
            self._backend, "worker_restarts", 0
        )

    def flush(self) -> int:
        """Drain all shard buffers through the merge layer, in order."""
        if self._backend is not None:
            self._dispatch_jobs()
        ops: List[FanoutOp] = []
        window_max = 0.0
        for worker in self.workers:
            if worker.buffer:
                ops.extend(worker.buffer)
                worker.buffer.clear()
            if worker.window_busy_s > window_max:
                window_max = worker.window_busy_s
            worker.window_busy_s = 0.0
        if not ops and window_max == 0.0:
            return 0
        ops.sort(key=lambda op: op.key)
        started = _perf_counter()
        applied = self.merge.apply(ops)
        merge_elapsed = _perf_counter() - started
        self.stats.drains += 1
        self.stats.merge_s += merge_elapsed
        self.stats.modeled_elapsed_s += window_max + merge_elapsed
        if self._m_merge_latency is not None:
            self._m_merge_latency.observe(merge_elapsed)
        return applied


class ShardCostModel:
    """Shard-attributed cost accounting without op buffering.

    Used where partition-aware *modeling* is wanted but the execution
    path must stay untouched — e.g. :class:`~repro.bgp.speaker.
    BgpSpeaker` charges each neighbor's export flush to the shard that
    would own that neighbor, so the scale-out bench can model parallel
    export without changing a single emitted byte.
    """

    def __init__(self, shard_count: int, seed: int = 0) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.shard_count = shard_count
        self.seed = seed
        self.busy_s = [0.0] * shard_count
        self.charges = [0] * shard_count

    def shard_for(self, key) -> int:
        if isinstance(key, str):
            key = stable_str_key(key)
        return stable_mix64(int(key), self.seed) % self.shard_count

    def charge(self, key, seconds: float) -> int:
        shard = self.shard_for(key)
        self.busy_s[shard] += seconds
        self.charges[shard] += 1
        return shard

    @property
    def serial_s(self) -> float:
        return sum(self.busy_s)

    @property
    def modeled_elapsed_s(self) -> float:
        return max(self.busy_s) if self.busy_s else 0.0

    def speedup(self) -> float:
        modeled = self.modeled_elapsed_s
        if modeled <= 0.0:
            return 1.0
        return self.serial_s / modeled
