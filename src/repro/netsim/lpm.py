"""Longest-prefix-match routing table: a multi-bit stride trie plus an LRU.

Each vBGP per-neighbor routing table, every router FIB, and the synthetic
Internet's forwarding state are instances of :class:`LpmTable`.  The table
is on the per-packet hot path (dMAC demux → per-neighbor table → LPM →
forward, §3.2.2), so it is built for lookup speed:

* **stride trie**: nodes consume 8 address bits per level, so an IPv4
  lookup touches at most 5 nodes instead of 33.  Prefix lengths that are
  not byte-aligned are expanded *inside* their node into a 256-slot
  ``expanded`` array (controlled prefix expansion), keeping the walk
  branch-free per level;
* **lookup cache**: a bounded per-table LRU (``_CACHE_CAP`` entries) keyed
  by the destination address caches both hits and misses.  Inserting or
  removing a prefix invalidates exactly the cached addresses it covers, so
  a more specific route becomes visible immediately.  The
  ``repro.perf.FLAGS.lpm_cache`` knob, read at table construction, turns
  the cache off (capacity 0) for A/B measurements.

:class:`LinearScanLpm` is the obviously-correct oracle the differential
tests compare against.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Generic, Iterator, Optional, TypeVar

from repro import perf
from repro.netsim.addr import IPAddress, Prefix

V = TypeVar("V")

_STRIDE = 8
_CACHE_CAP = 1024  # LRU lookup-cache entries per table
_MISS = object()  # cache sentinel distinguishing "no entry" from "not cached"


@dataclass
class RouteEntry(Generic[V]):
    """A prefix→value binding returned by LPM lookups."""

    prefix: Prefix
    value: V


# ---------------------------------------------------------------------------
# Stride trie
# ---------------------------------------------------------------------------


class _StrideNode:
    __slots__ = ("children", "entry", "partials", "expanded")

    def __init__(self) -> None:
        # Next-byte → child node (sparse: most nodes have few children).
        self.children: dict[int, "_StrideNode"] = {}
        # Entry for the prefix ending exactly at this node's byte boundary.
        self.entry: Optional[RouteEntry] = None
        # Entries whose length falls strictly inside this node's stride:
        # (top-bits value, remainder length 1..7) → entry.
        self.partials: Optional[dict[tuple[int, int], RouteEntry]] = None
        # Controlled prefix expansion of ``partials``: for each possible
        # next byte, the longest partial entry covering it (or None).
        self.expanded: Optional[list[Optional[RouteEntry]]] = None

    def is_empty(self) -> bool:
        return self.entry is None and not self.partials and not self.children


class _StrideTrie:
    """8-bit-stride trie with in-node controlled prefix expansion."""

    def __init__(self) -> None:
        self._root = _StrideNode()

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _partial_key(prefix: Prefix) -> tuple[int, int]:
        remainder = prefix.length % _STRIDE
        bits = prefix.ADDRESS_CLS.BITS
        top = (prefix.network.value >> (bits - prefix.length)) & (
            (1 << remainder) - 1
        )
        return (top, remainder)

    def _descend(self, prefix: Prefix, create: bool,
                 path: Optional[list[tuple[_StrideNode, int]]] = None,
                 ) -> Optional[_StrideNode]:
        node = self._root
        value = prefix.network.value
        bits = prefix.ADDRESS_CLS.BITS
        for level in range(prefix.length // _STRIDE):
            byte = (value >> (bits - _STRIDE * (level + 1))) & 0xFF
            child = node.children.get(byte)
            if child is None:
                if not create:
                    return None
                child = _StrideNode()
                node.children[byte] = child
            if path is not None:
                path.append((node, byte))
            node = child
        return node

    @staticmethod
    def _recompute_expanded(node: _StrideNode, lo: int, hi: int) -> None:
        """Rebuild ``expanded[lo:hi]`` from the partial entries."""
        partials = node.partials
        if not partials:
            node.expanded = None
            return
        if node.expanded is None:
            node.expanded = [None] * 256
        expanded = node.expanded
        for byte in range(lo, hi):
            best: Optional[RouteEntry] = None
            for remainder in range(_STRIDE - 1, 0, -1):
                entry = partials.get(
                    (byte >> (_STRIDE - remainder), remainder)
                )
                if entry is not None:
                    best = entry
                    break
            expanded[byte] = best

    # -- mutation --------------------------------------------------------

    def insert(self, prefix: Prefix, value: Any) -> bool:
        node = self._descend(prefix, create=True)
        assert node is not None
        entry = RouteEntry(prefix=prefix, value=value)
        if prefix.length % _STRIDE == 0:
            created = node.entry is None
            node.entry = entry
            return created
        key = self._partial_key(prefix)
        if node.partials is None:
            node.partials = {}
        created = key not in node.partials
        node.partials[key] = entry
        top, remainder = key
        span = 1 << (_STRIDE - remainder)
        self._recompute_expanded(node, top * span, (top + 1) * span)
        return created

    def remove(self, prefix: Prefix) -> bool:
        path: list[tuple[_StrideNode, int]] = []
        node = self._descend(prefix, create=False, path=path)
        if node is None:
            return False
        if prefix.length % _STRIDE == 0:
            if node.entry is None:
                return False
            node.entry = None
        else:
            key = self._partial_key(prefix)
            if not node.partials or key not in node.partials:
                return False
            del node.partials[key]
            top, remainder = key
            span = 1 << (_STRIDE - remainder)
            self._recompute_expanded(node, top * span, (top + 1) * span)
        # Prune empty nodes bottom-up so long-running simulations do not
        # leak nodes as routes churn.
        child = node
        for parent, byte in reversed(path):
            if child.is_empty():
                del parent.children[byte]
            else:
                break
            child = parent
        return True

    # -- queries ---------------------------------------------------------

    def get(self, prefix: Prefix) -> Optional[RouteEntry]:
        node = self._descend(prefix, create=False)
        if node is None:
            return None
        if prefix.length % _STRIDE == 0:
            return node.entry
        if not node.partials:
            return None
        return node.partials.get(self._partial_key(prefix))

    def lookup(self, address: IPAddress) -> Optional[RouteEntry]:
        node = self._root
        best: Optional[RouteEntry] = None
        value = address.value
        shift = address.BITS - _STRIDE
        while True:
            if node.entry is not None:
                best = node.entry
            if shift < 0:
                break
            byte = (value >> shift) & 0xFF
            expanded = node.expanded
            if expanded is not None:
                entry = expanded[byte]
                if entry is not None:
                    best = entry
            child = node.children.get(byte)
            if child is None:
                break
            node = child
            shift -= _STRIDE
        return best

    def lookup_all(self, address: IPAddress) -> list[RouteEntry]:
        matches: list[RouteEntry] = []
        node = self._root
        value = address.value
        shift = address.BITS - _STRIDE
        while True:
            if node.entry is not None:
                matches.append(node.entry)
            if shift < 0:
                break
            byte = (value >> shift) & 0xFF
            partials = node.partials
            if partials:
                for remainder in range(1, _STRIDE):
                    entry = partials.get(
                        (byte >> (_STRIDE - remainder), remainder)
                    )
                    if entry is not None:
                        matches.append(entry)
            child = node.children.get(byte)
            if child is None:
                break
            node = child
            shift -= _STRIDE
        return matches

    def entries(self) -> Iterator[RouteEntry]:
        yield from self._iter_subtree(self._root)

    def _iter_subtree(self, node: _StrideNode) -> Iterator[RouteEntry]:
        # Deterministic order: node entry, then partials by (length, bits),
        # then children by byte value.
        if node.entry is not None:
            yield node.entry
        if node.partials:
            for key in sorted(node.partials, key=lambda k: (k[1], k[0])):
                yield node.partials[key]
        for byte in sorted(node.children):
            yield from self._iter_subtree(node.children[byte])

    def node_count(self) -> int:
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            for child in node.children.values():
                count += 1
                stack.append(child)
        return count


# ---------------------------------------------------------------------------
# Linear-scan reference (for differential testing only)
# ---------------------------------------------------------------------------


class LinearScanLpm(Generic[V]):
    """A brutally simple LPM used as the differential-test oracle."""

    def __init__(self) -> None:
        self._entries: dict[Prefix, V] = {}

    def insert(self, prefix: Prefix, value: V) -> None:
        self._entries[prefix] = value

    def remove(self, prefix: Prefix) -> bool:
        return self._entries.pop(prefix, _MISS) is not _MISS

    def lookup(self, address: IPAddress) -> Optional[RouteEntry[V]]:
        best: Optional[Prefix] = None
        for prefix in self._entries:
            if prefix.contains_address(address):
                if best is None or prefix.length > best.length:
                    best = prefix
        if best is None:
            return None
        return RouteEntry(prefix=best, value=self._entries[best])

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Public facade: stride trie + LRU lookup cache
# ---------------------------------------------------------------------------


class LpmTable(Generic[V]):
    """A longest-prefix-match table for IPv4 or IPv6 prefixes.

    The table is protocol-agnostic: IPv4 and IPv6 prefixes may technically
    coexist but, per real-kernel practice, callers keep separate v4/v6
    tables (the lookup cache keys on ``(address bits, address value)`` so
    coexistence stays correct).
    """

    def __init__(self) -> None:
        self._backend = _StrideTrie()
        self._cache: OrderedDict = OrderedDict()
        self._cache_cap = _CACHE_CAP if perf.FLAGS.lpm_cache else 0
        self._size = 0
        self.cache_hits = 0
        self.cache_misses = 0

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, prefix: Prefix) -> bool:
        return self._backend.get(prefix) is not None

    def node_count(self) -> int:
        """Internal trie nodes currently allocated (leak checks)."""
        return self._backend.node_count()

    def cache_len(self) -> int:
        return len(self._cache)

    # -- mutation --------------------------------------------------------

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the entry for ``prefix``."""
        if self._backend.insert(prefix, value):
            self._size += 1
        self._invalidate(prefix)

    def remove(self, prefix: Prefix) -> bool:
        """Remove the exact entry for ``prefix``. Returns ``True`` if found.

        Empty trie branches are pruned so long-running simulations do not
        leak nodes as routes churn.
        """
        if not self._backend.remove(prefix):
            return False
        self._size -= 1
        self._invalidate(prefix)
        return True

    def clear(self) -> None:
        self._backend = _StrideTrie()
        self._size = 0
        self._cache.clear()

    def _invalidate(self, prefix: Prefix) -> None:
        """Drop cached lookups (hits *and* misses) covered by ``prefix``."""
        cache = self._cache
        if not cache:
            return
        if prefix.length == 0:
            cache.clear()
            return
        bits = prefix.ADDRESS_CLS.BITS
        shift = bits - prefix.length
        network = prefix.network.value >> shift
        stale = [
            key for key in cache
            if key[0] == bits and (key[1] >> shift) == network
        ]
        for key in stale:
            del cache[key]

    # -- queries ---------------------------------------------------------

    def get(self, prefix: Prefix) -> Optional[V]:
        """Exact-match lookup; returns the value or ``None``."""
        entry = self._backend.get(prefix)
        if entry is None:
            return None
        return entry.value

    def lookup(self, address: IPAddress) -> Optional[RouteEntry[V]]:
        """Longest-prefix-match for ``address``."""
        cache = self._cache
        key = (address.BITS, address.value)
        hit = cache.get(key, _MISS)
        if hit is not _MISS:
            self.cache_hits += 1
            cache.move_to_end(key)
            return hit
        self.cache_misses += 1
        entry = self._backend.lookup(address)
        cache[key] = entry
        if len(cache) > self._cache_cap:
            cache.popitem(last=False)
        return entry

    def lookup_all(self, address: IPAddress) -> list[RouteEntry[V]]:
        """All matching entries, shortest prefix first."""
        return self._backend.lookup_all(address)

    def covered_by(self, prefix: Prefix) -> Iterator[RouteEntry[V]]:
        """Iterate entries whose prefix is covered by ``prefix``."""
        for entry in self._backend.entries():
            if prefix.contains_prefix(entry.prefix):
                yield entry

    def entries(self) -> Iterator[RouteEntry[V]]:
        """Iterate all entries in deterministic trie order."""
        yield from self._backend.entries()
