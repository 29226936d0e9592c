"""Per-layer tracing from outside the program.

A traced run wraps the public entry point of each layer at run time —
nothing under ``src/`` changes.  Each wrapper records a span (name,
start, end, parent, index of the operation that caused it) into flat
in-memory arrays; the load generator's per-operation call is the root span, so
every layer's self time (span time minus child spans) sums to the traced
wall clock.  Draining is synchronous and single-threaded, so no layer
waits in wall-clock time and no wait times are reported.

The hook table is declarative.  A hook whose function does not exist at
the measured commit is reported as missing and the run goes on.
"""

from __future__ import annotations

import gc
import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

ROOT = "bench.load"


def _result(_args: tuple, result: int) -> int:
    return result


def _sent_bytes(args: tuple, _result: None) -> int:
    return len(args[1])


@dataclass(frozen=True)
class Hook:
    """Wrap ``target`` (``module:Class.attr``) as a span named ``layer``.

    With a ``tally`` each wrapped call adds ``tally(args, result)`` to a
    sum per layer and kind of root operation (the scheduler's events
    fired, or bytes sent, per UPDATE or per packet).
    """

    layer: str
    target: str
    tally: Optional[Callable[[tuple, object], int]] = None


HOOKS: tuple[Hook, ...] = (
    Hook("sim.scheduler", "repro.sim.scheduler:Scheduler.run_until",
         tally=_result),
    Hook("bgp.transport.send", "repro.bgp.transport:Channel.send",
         tally=_sent_bytes),
    Hook("bgp.session.receive", "repro.bgp.session:BgpSession._data_received"),
    Hook("bgp.session.send", "repro.bgp.session:BgpSession.send_update"),
    Hook("bgp.session.send", "repro.bgp.session:BgpSession.send_wire"),
    Hook("bgp.messages.decode",
         "repro.bgp.messages:MessageDecoder.next_message"),
    Hook("bgp.messages.encode", "repro.bgp.messages:UpdateMessage.encode"),
    Hook("vbgp.node", "repro.bgp.session:BgpSession.deliver_update"),
    Hook("vbgp.node.path_id",
         "repro.vbgp.node:ExperimentAttachment.path_id_for"),
    Hook("netsim.stack.receive",
         "repro.netsim.stack:NetworkStack._frame_arrived"),
    Hook("netsim.stack.route_ops", "repro.netsim.stack:NetworkStack.add_route"),
    Hook("netsim.stack.route_ops",
         "repro.netsim.stack:NetworkStack.remove_route"),
    Hook("netsim.stack.lookup_route",
         "repro.netsim.stack:NetworkStack.lookup_route"),
    Hook("netsim.stack.send_frame", "repro.netsim.stack:Interface.send_frame"),
    Hook("netsim.link", "repro.netsim.link:Port.deliver"),
    Hook("netsim.link", "repro.netsim.link:Port.transmit"),
    Hook("netsim.lpm.insert", "repro.netsim.lpm:LpmTable.insert"),
    Hook("netsim.lpm.remove", "repro.netsim.lpm:LpmTable.remove"),
    Hook("netsim.lpm.lookup", "repro.netsim.lpm:LpmTable.lookup"),
    Hook("security.data", "repro.security.data:DataPlaneEnforcer.ingress"),
    Hook("bench.sink", "vbgpbench.world:ExperimentSink.receive"),
    Hook("bench.sink", "vbgpbench.world:DataSink.receive"),
)


def _resolve(target: str) -> tuple[Optional[type], str]:
    """The class owning ``target`` and the attribute name, or (None, name)."""
    module_name, _, qualname = target.partition(":")
    *owner_path, attr = qualname.split(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, attr
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    if not isinstance(owner, type) or attr not in vars(owner):
        return None, attr
    return owner, attr


class Tracer:
    """Span recorder plus the hook installer."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS) -> None:
        self.hooks = hooks
        self.layers: list[str] = [ROOT]
        self._layer_ids: dict[str, int] = {ROOT: 0}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self.op_index = -1
        self.kind = ""
        # Kind of each root operation, by operation index.
        self.kinds: list[str] = []
        self.results: dict[tuple[str, str], int] = {}
        self.missing: list[str] = []
        self._installed: list[tuple[type, str, object]] = []

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    # -- hooks -------------------------------------------------------------

    def install(self) -> None:
        for hook in self.hooks:
            self._layer_id(hook.layer)  # reported, as zero, even if missing
            owner, attr = _resolve(hook.target)
            if owner is None:
                self.missing.append(hook.target)
                continue
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        layer_id = self._layer_id(hook.layer)
        stack = self._stack
        clock = time.perf_counter
        names, starts, ends = self.name, self.start, self.end
        parents, ops = self.parent, self.op
        results = self.results
        layer = hook.layer
        tally = hook.tally

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(layer_id)
            parents.append(stack[-1])
            ops.append(self.op_index)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if tally is not None:
                key = (layer, self.kind)
                results[key] = results.get(key, 0) + tally(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- root spans --------------------------------------------------------

    def root(self, fn: Callable, kind: str) -> Callable:
        """Wrap one load operation of ``kind``; each call is a new root
        span."""
        stack = self._stack
        clock = time.perf_counter
        names, starts, ends = self.name, self.start, self.end
        parents, ops = self.parent, self.op

        kinds = self.kinds

        def operation(*args):
            self.op_index += 1
            self.kind = kind
            kinds.append(kind)
            index = len(starts)
            names.append(0)
            parents.append(-1)
            ops.append(self.op_index)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args)
            finally:
                ends[index] = clock()
                stack.pop()

        return operation

    @property
    def ops(self) -> int:
        return self.op_index + 1

    @property
    def active(self) -> bool:
        """True while a root operation runs."""
        return bool(self._stack)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per layer and the summed root (wall-clock) time."""
        count = len(self.start)
        child = [0.0] * count
        starts, ends, parents = self.start, self.end, self.parent
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        totals = [0.0] * len(self.layers)
        wall = 0.0
        names = self.name
        for index in range(count):
            duration = ends[index] - starts[index]
            totals[names[index]] += duration - child[index]
            if parents[index] < 0:
                wall += duration
        return dict(zip(self.layers, totals)), wall

    def span_counts(self, kind: Optional[str] = None) -> dict[str, int]:
        """Spans per layer, under root operations of ``kind`` or of every
        kind."""
        counts = dict.fromkeys(self.layers, 0)
        kinds, layers = self.kinds, self.layers
        for layer_id, op in zip(self.name, self.op):
            if kind is None or kinds[op] == kind:
                counts[layers[layer_id]] += 1
        return counts

    def write_spans(self, path: str) -> None:
        """Dump every span as tab-separated text (name, op, parent, start,
        end), for offline inspection."""
        with open(path, "w", encoding="ascii") as out:
            out.write("span\tlayer\top\tparent\tstart_s\tend_s\n")
            for index in range(len(self.start)):
                out.write(
                    f"{index}\t{self.layers[self.name[index]]}\t"
                    f"{self.op[index]}\t{self.parent[index]}\t"
                    f"{self.start[index]:.9f}\t{self.end[index]:.9f}\n"
                )


class GcMonitor:
    """Collector pauses and generation-2 runs inside the tracer's root
    operations, seen via ``gc.callbacks``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.pause_s = 0.0
        self.gen2 = 0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = (time.perf_counter() if self.tracer.active
                             else None)
            return
        if self._started is None:
            return
        self.pause_s += time.perf_counter() - self._started
        if info.get("generation") == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self._callback)
