"""Merge output is permutation-invariant to worker completion order.

Satellite 4 (property leg): real backends complete shards in whatever
order the scheduler/OS picks, so the engine's correctness rests on the
``MergeKey`` sort alone.  The Hypothesis property builds one op stream,
scatters it across workers in a shuffled completion order, and asserts
the merged effect stream is always the canonical one.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import FanoutOp, MergeKey, MergeLayer, ShardStats


class _RecorderSession:
    """Established session stub that records what the merge sends."""

    def __init__(self, log, name):
        self.log = log
        self.name = name
        self.established = True
        self.addpath_active = False

    def send_update(self, update):
        self.log.append(("send", self.name, update))

    def send_wire(self, frame):
        self.log.append(("wire", self.name, frame))


class _RecorderStack:
    def __init__(self, log):
        self.log = log

    def add_route(self, route, table_id=None):
        self.log.append(("add", table_id, route))

    def remove_route(self, prefix, table_id=None):
        self.log.append(("remove", table_id, prefix))
        return True


class _RecorderNode:
    def __init__(self):
        self.log = []
        self.stack = _RecorderStack(self.log)
        from collections import Counter

        self.counters = Counter()


@st.composite
def _op_streams(draw):
    """A batch of ops with distinct MergeKeys plus a completion order."""
    shard_count = draw(st.integers(min_value=1, max_value=8))
    item_count = draw(st.integers(min_value=1, max_value=24))
    ops = []
    for seq in range(item_count):
        sim_time = float(draw(st.integers(min_value=0, max_value=3)))
        shard = draw(st.integers(min_value=0, max_value=shard_count - 1))
        emits = draw(st.integers(min_value=1, max_value=3))
        for emit in range(emits):
            kind = draw(st.sampled_from(
                ["send_wire", "add_route", "remove_route"]
            ))
            ops.append((kind, MergeKey(sim_time, seq, shard, emit)))
    order = draw(st.permutations(range(len(ops))))
    return shard_count, ops, order


@given(_op_streams())
@settings(max_examples=60, deadline=None)
def test_merge_is_permutation_invariant(stream):
    shard_count, op_specs, order = stream

    def materialise(node, session):
        ops = []
        for index, (kind, key) in enumerate(op_specs):
            if kind == "send_wire":
                ops.append(FanoutOp(
                    key=key, kind="send_wire",
                    payload=f"frame-{index}".encode(),
                    target=(session,), counter="updates_to_experiments",
                ))
            elif kind == "add_route":
                ops.append(FanoutOp(
                    key=key, kind="add_route", payload=f"route-{index}",
                    table_id=key.shard_id, counter="routes_installed",
                ))
            else:
                ops.append(FanoutOp(
                    key=key, kind="remove_route", payload=f"pfx-{index}",
                    table_id=key.shard_id, counter="routes_removed",
                ))
        return ops

    # Canonical: ops applied in MergeKey order, as one worker would.
    canonical_node = _RecorderNode()
    canonical_session = _RecorderSession(canonical_node.log, "s")
    canonical_ops = sorted(
        materialise(canonical_node, canonical_session),
        key=lambda op: op.key,
    )
    MergeLayer(canonical_node, ShardStats()).apply(canonical_ops)

    # Shuffled: the same ops arrive in an arbitrary completion order
    # (what a real backend produces), sorted by the engine's flush.
    shuffled_node = _RecorderNode()
    shuffled_session = _RecorderSession(shuffled_node.log, "s")
    shuffled_ops = materialise(shuffled_node, shuffled_session)
    shuffled_ops = [shuffled_ops[i] for i in order]
    shuffled_ops.sort(key=lambda op: op.key)
    MergeLayer(shuffled_node, ShardStats()).apply(shuffled_ops)

    assert shuffled_node.log == canonical_node.log
    assert shuffled_node.counters == canonical_node.counters
