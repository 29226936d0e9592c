"""§6g Loc-RIB engine tests: columnar storage and incremental best-path.

The hypothesis properties drive arbitrary insert/withdraw sequences with
MED-heavy attribute sets (the non-transitive corner of RFC 4271 §9.1.2.2)
and check the incremental :class:`LocRib` against a plain candidate-list
model running a full decision fold after every single operation — on the
best entry, the candidate order, the best-change signals, and the
attribute-handle table, which must hold exactly the attribute sets still
in use.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro import perf
from repro.bgp import attributes
from repro.bgp.attributes import AsPath, Origin, PathAttributes, Route
from repro.bgp.decision import best_path
from repro.bgp.rib import LocRib, RibEntry
from repro.netsim.addr import IPv4Address, IPv4Prefix

PREFIXES = [IPv4Prefix.parse(f"10.{i}.0.0/16") for i in range(4)]
PEERS = ["pa", "pb", "pc"]
NH = IPv4Address.parse("1.1.1.1")

# Same-length AS paths differing in first AS and MED: the MED step only
# compares routes entering from the same neighboring AS, which makes the
# comparator non-transitive — the corner the incremental fast paths must
# not cut.
ATTRS = [
    PathAttributes(origin=Origin.IGP, as_path=AsPath.from_asns(first, 900),
                   next_hop=NH, med=med)
    for first, med in [
        (100, 0), (100, 50), (200, 10), (200, 40), (300, 20),
    ]
]


def _ops():
    return st.lists(
        st.tuples(
            st.sampled_from(["replace", "remove", "remove_peer"]),
            st.sampled_from(PEERS),
            st.integers(min_value=0, max_value=len(PREFIXES) - 1),
            st.integers(min_value=0, max_value=len(ATTRS) - 1),
            st.sampled_from([None, 1, 2]),
        ),
        min_size=1, max_size=40,
    )


def _apply(rib, op):
    kind, peer, prefix_index, attr_index, path_id = op
    prefix = PREFIXES[prefix_index]
    if kind == "replace":
        rib.replace(peer, Route(prefix=prefix, attributes=ATTRS[attr_index],
                                path_id=path_id))
    elif kind == "remove":
        rib.remove(peer, prefix, path_id)
    else:
        rib.remove_peer(peer)


def _entry_key(entry):
    return None if entry is None else (entry.peer, entry.route)


def _state(rib):
    return {
        prefix: (
            _entry_key(rib.best(prefix)),
            [_entry_key(entry) for entry in rib.candidates(prefix)],
        )
        for prefix in PREFIXES
    }


class _ListRib:
    """The oracle: an ordered candidate list per prefix and a full
    ``best_path`` fold after every change."""

    def __init__(self):
        self.candidates = {prefix: [] for prefix in PREFIXES}
        self.best = {prefix: None for prefix in PREFIXES}

    def _key(self, entry):
        return (entry.peer, entry.route.path_id)

    def _reselect(self, prefix):
        best = best_path(self.candidates[prefix])
        before = self.best[prefix]
        self.best[prefix] = best
        if best is None or before is None:
            return best is not before
        return (best.peer, best.route) != (before.peer, before.route)

    def apply(self, op):
        kind, peer, prefix_index, attr_index, path_id = op
        if kind == "remove_peer":
            changed = []
            for prefix in PREFIXES:
                kept = [e for e in self.candidates[prefix] if e.peer != peer]
                if len(kept) != len(self.candidates[prefix]):
                    self.candidates[prefix] = kept
                    if self._reselect(prefix):
                        changed.append(prefix)
            return changed
        prefix = PREFIXES[prefix_index]
        entries = self.candidates[prefix]
        kept = [e for e in entries if self._key(e) != (peer, path_id)]
        if kind == "remove":
            if len(kept) == len(entries):
                return False
            self.candidates[prefix] = kept
            return self._reselect(prefix)
        route = Route(prefix=prefix, attributes=ATTRS[attr_index],
                      path_id=path_id)
        self.candidates[prefix] = kept + [RibEntry(peer=peer, route=route)]
        return self._reselect(prefix)


def _attribute_sets_in_use(rib):
    return {
        entry.route.attributes
        for prefix in rib.prefixes()
        for entry in rib.candidates(prefix)
    }


@given(ops=_ops())
@settings(max_examples=60, deadline=None)
def test_incremental_equals_full_reselect_after_every_op(ops):
    """The incremental RIB matches a full-fold reference after *every*
    operation, and its handle table holds exactly the attribute sets its
    candidates still use."""
    rib = LocRib(select=best_path)
    reference = _ListRib()
    for op in ops:
        _apply(rib, op)
        reference.apply(op)
        assert _state(rib) == {
            prefix: (
                _entry_key(reference.best[prefix]),
                [_entry_key(entry) for entry in reference.candidates[prefix]],
            )
            for prefix in PREFIXES
        }
        in_use = _attribute_sets_in_use(rib)
        assert len(rib._attr_handles) == len(in_use)
        assert set(rib._attr_handles) == in_use


@given(ops=_ops())
@settings(max_examples=40, deadline=None)
def test_change_signals_and_stats_match_reference(ops):
    """``replace``/``remove``/``remove_peer`` report a best change exactly
    when the full-fold reference's best changes, and the always-on
    decision stats count what happened."""
    rib = LocRib(select=best_path)
    reference = _ListRib()
    changes = 0
    for op in ops:
        kind, peer, prefix_index, attr_index, path_id = op
        prefix = PREFIXES[prefix_index]
        if kind == "replace":
            got = rib.replace(peer, Route(
                prefix=prefix, attributes=ATTRS[attr_index], path_id=path_id))
        elif kind == "remove":
            got = rib.remove(peer, prefix, path_id)
        else:
            got = set(rib.remove_peer(peer))
        want = reference.apply(op)
        assert got == (set(want) if kind == "remove_peer" else want)
        changes += len(got) if kind == "remove_peer" else got
    assert len(rib) == sum(
        len(entries) for entries in reference.candidates.values())
    assert rib.prefix_count == sum(
        1 for entries in reference.candidates.values() if entries)
    assert rib.stats.inserts == sum(1 for op in ops if op[0] == "replace")
    assert rib.stats.best_changes == changes


def test_columnar_replacement_moves_to_end():
    """pop-then-append: re-announcing a candidate moves it to the end of
    the fold order, like replacing an entry of a plain candidate list."""
    rib = LocRib(select=best_path)
    for peer, attrs in zip(PEERS, ATTRS):
        rib.replace(peer, Route(prefix=PREFIXES[0], attributes=attrs))
    rib.replace(PEERS[0], Route(prefix=PREFIXES[0], attributes=ATTRS[3]))
    assert [e.peer for e in rib.candidates(PREFIXES[0])] == \
        [PEERS[1], PEERS[2], PEERS[0]]


def test_columnar_path_id_zero_distinct_from_none():
    """Wire path id 0 is a valid id; the ``-1`` sentinel for ``None``
    must not collide with it."""
    rib = LocRib(select=best_path)
    rib.replace("pa", Route(prefix=PREFIXES[0], attributes=ATTRS[0],
                            path_id=0))
    rib.replace("pa", Route(prefix=PREFIXES[0], attributes=ATTRS[1],
                            path_id=None))
    assert len(rib) == 2
    assert rib.remove("pa", PREFIXES[0], 0)
    assert [e.path_id for e in rib.candidates(PREFIXES[0])] == [None]


def test_columnar_interns_equal_attributes():
    """Distinct-but-equal attribute objects share one handle (and one
    canonical object), so candidate storage is three ints per route."""
    rib = LocRib(select=best_path)
    for index, prefix in enumerate(PREFIXES):
        copy = PathAttributes(
            origin=ATTRS[0].origin, as_path=ATTRS[0].as_path,
            next_hop=ATTRS[0].next_hop, med=ATTRS[0].med,
        )
        rib.replace("pa", Route(prefix=prefix, attributes=copy))
    assert len(rib._attr_handles) == 1
    materialized = {
        id(rib.best(prefix).route.attributes) for prefix in PREFIXES
    }
    assert len(materialized) == 1  # one shared canonical object


def test_attr_pool_registered_with_cache_clearers():
    """Handles point at the process-wide intern pool's canonical object;
    clearing that pool mid-life must not affect the RIB."""
    rib = LocRib(select=best_path)
    rib.replace("pa", Route(prefix=PREFIXES[0], attributes=ATTRS[0]))
    assert attributes._ATTRIBUTES_POOL[ATTRS[0]] is \
        rib.best(PREFIXES[0]).route.attributes
    perf.clear_caches()
    assert len(attributes._ATTRIBUTES_POOL) == 0
    assert rib.best(PREFIXES[0]).route.attributes == ATTRS[0]
    rib.replace("pb", Route(prefix=PREFIXES[0], attributes=ATTRS[1]))
    assert len(rib.candidates(PREFIXES[0])) == 2


def test_attribute_churn_frees_handles():
    """MED flaps on one prefix, then a withdraw: every handle the flaps
    allocated is freed, and freed slots are reused while flapping."""
    rib = LocRib(select=best_path)
    as_path = AsPath.from_asns(100, 900)
    for med in range(20000):
        rib.replace("pa", Route(prefix=PREFIXES[0], attributes=PathAttributes(
            origin=Origin.IGP, as_path=as_path, next_hop=NH, med=med)))
    assert len(rib._attr_handles) == 1
    assert len(rib._attr_values) <= 2
    assert rib.remove("pa", PREFIXES[0])
    assert len(rib) == 0
    assert len(rib._attr_handles) == 0


def test_best_routes_iterates_all_prefixes():
    rib = LocRib(select=best_path)
    for prefix, (peer, attrs) in zip(
        PREFIXES, itertools.cycle([("pa", ATTRS[0]), ("pb", ATTRS[1])])
    ):
        rib.replace(peer, Route(prefix=prefix, attributes=attrs))
    assert {entry.route.prefix for entry in rib.best_routes()} == \
        set(PREFIXES)
