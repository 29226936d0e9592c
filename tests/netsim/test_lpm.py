"""LPM trie tests, including a hypothesis model check against a naive
reference implementation and differential tests of the stride trie (with
and without the lookup cache in front of it) against a linear-scan
oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.netsim import lpm
from repro.netsim.addr import IPv4Address, IPv4Prefix, IPv6Address, IPv6Prefix
from repro.netsim.lpm import LinearScanLpm, LpmTable


def prefix(text: str) -> IPv4Prefix:
    return IPv4Prefix.parse(text)


def addr(text: str) -> IPv4Address:
    return IPv4Address.parse(text)


def test_empty_lookup():
    assert LpmTable().lookup(addr("1.2.3.4")) is None


def test_exact_insert_get_remove():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/24"), "a")
    assert table.get(prefix("10.0.0.0/24")) == "a"
    assert table.get(prefix("10.0.0.0/25")) is None
    assert table.remove(prefix("10.0.0.0/24"))
    assert table.get(prefix("10.0.0.0/24")) is None
    assert not table.remove(prefix("10.0.0.0/24"))


def test_longest_match_wins():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/8"), "big")
    table.insert(prefix("10.1.0.0/16"), "mid")
    table.insert(prefix("10.1.2.0/24"), "small")
    assert table.lookup(addr("10.1.2.3")).value == "small"
    assert table.lookup(addr("10.1.9.9")).value == "mid"
    assert table.lookup(addr("10.9.9.9")).value == "big"
    assert table.lookup(addr("11.0.0.1")) is None


def test_default_route():
    table = LpmTable()
    table.insert(prefix("0.0.0.0/0"), "default")
    table.insert(prefix("10.0.0.0/8"), "ten")
    assert table.lookup(addr("200.0.0.1")).value == "default"
    assert table.lookup(addr("10.0.0.1")).value == "ten"


def test_replace_value():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/24"), "old")
    table.insert(prefix("10.0.0.0/24"), "new")
    assert len(table) == 1
    assert table.get(prefix("10.0.0.0/24")) == "new"


def test_lookup_all_orders_short_to_long():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/8"), 8)
    table.insert(prefix("10.1.0.0/16"), 16)
    table.insert(prefix("10.1.2.0/24"), 24)
    values = [e.value for e in table.lookup_all(addr("10.1.2.3"))]
    assert values == [8, 16, 24]


def test_covered_by():
    table = LpmTable()
    table.insert(prefix("10.1.0.0/24"), 1)
    table.insert(prefix("10.1.1.0/24"), 2)
    table.insert(prefix("10.2.0.0/24"), 3)
    covered = {str(e.prefix) for e in table.covered_by(prefix("10.1.0.0/16"))}
    assert covered == {"10.1.0.0/24", "10.1.1.0/24"}


def test_entries_iteration_and_len():
    table = LpmTable()
    for index in range(50):
        table.insert(prefix(f"10.{index}.0.0/16"), index)
    assert len(table) == 50
    assert {e.value for e in table.entries()} == set(range(50))


def test_remove_prunes_nodes():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/30"), "x")
    table.remove(prefix("10.0.0.0/30"))
    # No internal nodes should be left after pruning.
    assert table.node_count() == 0


def test_clear():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/8"), 1)
    table.clear()
    assert len(table) == 0
    assert table.lookup(addr("10.0.0.1")) is None


def test_contains():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/8"), 1)
    assert prefix("10.0.0.0/8") in table
    assert prefix("10.0.0.0/9") not in table


prefixes_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(prefixes_st, st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_matches_naive_reference(pairs, probe):
    """The trie agrees with a brute-force longest-match search."""
    table = LpmTable()
    model: dict[IPv4Prefix, int] = {}
    for index, (value, length) in enumerate(pairs):
        p = IPv4Prefix.from_address(IPv4Address(value), length)
        table.insert(p, index)
        model[p] = index
    address = IPv4Address(probe)
    matches = [p for p in model if p.contains_address(address)]
    expected = max(matches, key=lambda p: p.length, default=None)
    got = table.lookup(address)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert got.prefix.length == expected.length
        assert got.value == model[expected]


@settings(max_examples=40, deadline=None)
@given(prefixes_st)
def test_insert_remove_restores_empty(pairs):
    table = LpmTable()
    inserted = []
    for index, (value, length) in enumerate(pairs):
        p = IPv4Prefix.from_address(IPv4Address(value), length)
        table.insert(p, index)
        inserted.append(p)
    for p in set(inserted):
        assert table.remove(p)
    assert len(table) == 0
    assert table.node_count() == 0


# ---------------------------------------------------------------------------
# Fast-path edge cases and cache-invalidation behaviour (PR 1)
# ---------------------------------------------------------------------------


class _TrieOnly(LpmTable):
    """The stride-trie walk with the LRU cache bypassed."""

    def lookup(self, address):
        return self._backend.lookup(address)


BACKENDS = [
    pytest.param(_TrieOnly, id="stride"),
    pytest.param(LpmTable, id="stride+cache"),
]


@pytest.mark.parametrize("table_cls", BACKENDS)
def test_default_route_all_backends(table_cls):
    table = table_cls()
    table.insert(prefix("0.0.0.0/0"), "default")
    assert table.lookup(addr("1.2.3.4")).value == "default"
    assert table.lookup(addr("255.255.255.255")).value == "default"
    table.insert(prefix("10.0.0.0/8"), "ten")
    assert table.lookup(addr("10.200.0.1")).value == "ten"
    assert table.lookup(addr("11.0.0.1")).value == "default"
    assert table.remove(prefix("0.0.0.0/0"))
    assert table.lookup(addr("11.0.0.1")) is None


@pytest.mark.parametrize("table_cls", BACKENDS)
def test_host_route_wins_all_backends(table_cls):
    table = table_cls()
    table.insert(prefix("10.0.0.0/24"), "net")
    table.insert(prefix("10.0.0.7/32"), "host")
    assert table.lookup(addr("10.0.0.7")).value == "host"
    assert table.lookup(addr("10.0.0.8")).value == "net"
    assert table.get(prefix("10.0.0.7/32")) == "host"
    assert table.remove(prefix("10.0.0.7/32"))
    assert table.lookup(addr("10.0.0.7")).value == "net"


def test_remove_then_lookup_invalidates_cache():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/8"), "big")
    table.insert(prefix("10.1.0.0/16"), "small")
    probe = addr("10.1.2.3")
    assert table.lookup(probe).value == "small"
    assert table.lookup(probe).value == "small"  # cached
    assert table.cache_hits >= 1
    assert table.remove(prefix("10.1.0.0/16"))
    # The cached result covering 10.1/16 must have been dropped.
    assert table.lookup(probe).value == "big"
    assert table.remove(prefix("10.0.0.0/8"))
    assert table.lookup(probe) is None


def test_covering_insert_invalidates_cached_miss():
    table = LpmTable()
    probe = addr("192.0.2.55")
    assert table.lookup(probe) is None
    assert table.lookup(probe) is None  # the miss itself is cached
    assert table.cache_hits >= 1
    table.insert(prefix("192.0.2.0/24"), "now")
    assert table.lookup(probe).value == "now"
    # A covering insert must also supersede a cached *shorter* hit.
    other = addr("192.0.2.200")
    assert table.lookup(other).value == "now"
    table.insert(prefix("192.0.2.128/25"), "more-specific")
    assert table.lookup(other).value == "more-specific"


def test_unrelated_insert_keeps_cache_entries():
    table = LpmTable()
    table.insert(prefix("10.0.0.0/8"), "ten")
    probe = addr("10.1.2.3")
    assert table.lookup(probe).value == "ten"
    before = table.cache_len()
    table.insert(prefix("172.16.0.0/12"), "unrelated")
    assert table.cache_len() == before  # not covered -> not invalidated
    hits = table.cache_hits
    assert table.lookup(probe).value == "ten"
    assert table.cache_hits == hits + 1


def test_cache_is_bounded_lru(monkeypatch):
    monkeypatch.setattr(lpm, "_CACHE_CAP", 4)
    table = LpmTable()
    table.insert(prefix("0.0.0.0/0"), "d")
    for i in range(10):
        table.lookup(IPv4Address(i))
    assert table.cache_len() == 4
    assert table.cache_misses == 10
    # Least recently used goes first: the oldest probes were evicted.
    table.lookup(IPv4Address(9))
    table.lookup(IPv4Address(0))
    assert table.cache_hits == 1
    assert table.cache_misses == 11


def test_lpm_table_honours_perf_flags():
    with perf.flags(lpm_cache=False):
        table = LpmTable()
    table.insert(prefix("10.0.0.0/8"), 1)
    for _ in range(3):
        assert table.lookup(addr("10.0.0.1")).value == 1
    assert table.cache_len() == 0 and table.cache_hits == 0
    table = LpmTable()
    table.insert(prefix("10.0.0.0/8"), 1)
    table.lookup(addr("10.0.0.1"))
    table.lookup(addr("10.0.0.1"))
    assert table.cache_len() == 1 and table.cache_hits == 1


def test_ipv6_prefixes_supported_by_stride_trie():
    table = LpmTable()
    table.insert(IPv6Prefix.parse("2804:269c::/32"), "peering")
    table.insert(IPv6Prefix.parse("2804:269c:fe::/48"), "pop")
    assert table.lookup(
        IPv6Address.parse("2804:269c:fe::1")
    ).value == "pop"
    assert table.lookup(
        IPv6Address.parse("2804:269c:1::1")
    ).value == "peering"
    assert table.lookup(IPv6Address.parse("2001:db8::1")) is None


@pytest.mark.parametrize("table_cls", BACKENDS)
def test_randomized_differential_against_linear_scan(table_cls):
    """≥1k random prefixes: the trie agrees with the linear-scan oracle
    through a churn of inserts, removes, and lookups."""
    rng = random.Random(20260806)
    table = table_cls()
    oracle = LinearScanLpm()
    live = []
    for index in range(1200):
        value = rng.getrandbits(32)
        length = rng.choice(
            [0, 1, 7, 8, 9, 15, 16, 17, 20, 23, 24, 25, 30, 31, 32]
        )
        p = IPv4Prefix.from_address(IPv4Address(value), length)
        table.insert(p, index)
        oracle.insert(p, index)
        live.append(p)
        if rng.random() < 0.25 and live:
            victim = live.pop(rng.randrange(len(live)))
            assert table.remove(victim) == (victim in oracle._entries)
            oracle.remove(victim)
        if index % 3 == 0:
            probe = IPv4Address(rng.getrandbits(32))
            got = table.lookup(probe)
            want = oracle.lookup(probe)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got.prefix == want.prefix
    assert len(table) == len(oracle)
    # Full sweep at the end, including repeat (cached) probes.
    for _ in range(500):
        probe = IPv4Address(rng.getrandbits(32))
        for attempt in range(2):
            got = table.lookup(probe)
            want = oracle.lookup(probe)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.prefix == want.prefix


@settings(max_examples=40, deadline=None)
@given(prefixes_st, st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_lookup_all_and_entries_match_naive_reference(pairs, probe):
    """``lookup_all`` lists every covering prefix shortest first, and
    ``entries`` lists every stored prefix exactly once."""
    table = LpmTable()
    model: dict[IPv4Prefix, int] = {}
    for index, (value, length) in enumerate(pairs):
        p = IPv4Prefix.from_address(IPv4Address(value), length)
        table.insert(p, index)
        model[p] = index
    address = IPv4Address(probe)
    covering = sorted(
        (p for p in model if p.contains_address(address)),
        key=lambda p: p.length,
    )
    assert [(e.prefix, e.value) for e in table.lookup_all(address)] == [
        (p, model[p]) for p in covering
    ]
    assert sorted(e.prefix.key() for e in table.entries()) == sorted(
        p.key() for p in model
    )
