"""Deterministic, seed-stable partitioning for the sharded fan-out.

The scale-out engine (:mod:`repro.shard.engine`) splits vBGP update
propagation across N worker shards.  *Which* shard owns a piece of work
must be a pure function of ``(key, seed, shard_count)`` — never of
process identity, insertion order, or the interpreter's randomized
``hash()`` — so that

* the same workload replayed under the same seed lands on the same
  shards (the differential harness depends on this),
* assignments agree across runs **and across Python versions** (builtin
  ``hash()`` of strings is salted per process and of small ints differs
  from CPython release to release for negative values; neither is used
  here), and
* a resurrected shard re-adopts exactly the keys it owned before it was
  killed (the chaos shard-kill scenario depends on this).

Two strategies are provided behind the :class:`PartitionFn` protocol:

``NeighborPartition``
    keys work by the *neighbor* (its global id).  Every update learned
    from one neighbor — and the complete fan-out it triggers — stays on
    one shard.  Because an inbound UPDATE is never split, multi-NLRI
    packing is untouched and sharded output is **byte-identical** to the
    unsharded reference for any shard count.  This is the default
    strategy behind the ``shards=N`` perf knob.

``PrefixRangePartition``
    keys work by *prefix range*: the IPv4 space is carved into ``2**
    range_bits`` equal contiguous ranges (default /12 blocks) and each
    block maps wholly to one shard.  An inbound UPDATE may be split
    across shards, so multi-NLRI packing can legitimately differ from
    the unsharded reference; the *decoded route-change stream* and all
    structural state remain
    identical, which is what the differential harness checks for this
    strategy.

Both strategies mix keys through :func:`stable_mix64`, a splitmix64
finalizer over explicit integer bytes.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.netsim.addr import Prefix

__all__ = [
    "NeighborPartition",
    "PartitionFn",
    "PrefixRangePartition",
    "STRATEGIES",
    "make_partition",
    "stable_mix64",
    "stable_str_key",
]

_MASK64 = (1 << 64) - 1

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3


def stable_mix64(value: int, seed: int = 0) -> int:
    """A splitmix64-style finalizer: deterministic across processes,
    platforms, and Python versions (no builtin ``hash`` anywhere)."""
    z = (value ^ (seed * 0x9E3779B97F4A7C15)) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def stable_str_key(text: str) -> int:
    """FNV-1a over the UTF-8 bytes of ``text`` — a process- and
    version-stable integer key for string-identified work (neighbor
    names in :class:`~repro.shard.engine.ShardCostModel`).  Unlike
    builtin ``hash(str)``, this is not salted by ``PYTHONHASHSEED``."""
    acc = _FNV64_OFFSET
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * _FNV64_PRIME) & _MASK64
    return acc


@runtime_checkable
class PartitionFn(Protocol):
    """The pluggable partition strategy contract.

    A partition function is a *pure* mapping from work keys to shard
    ids in ``range(shard_count)``; implementations must not consult any
    process-local state (``id()``, builtin ``hash``, iteration order).
    """

    strategy: str
    shard_count: int
    seed: int

    def shard_for_neighbor(self, global_id: int) -> int:
        """Shard owning work keyed by a neighbor's global id."""
        ...  # pragma: no cover - protocol

    def shard_for_prefix(self, prefix: Prefix) -> int:
        """Shard owning work keyed by a route's prefix."""
        ...  # pragma: no cover - protocol

    def splits_updates(self) -> bool:
        """Whether one inbound UPDATE may be split across shards."""
        ...  # pragma: no cover - protocol


class NeighborPartition:
    """All of one neighbor's churn — RIB, kernel table, fan-out — on
    one shard (the §4.2 per-neighbor ownership model, scaled out)."""

    strategy = "neighbor"

    def __init__(self, shard_count: int, seed: int = 0) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.shard_count = shard_count
        self.seed = seed

    def shard_for_neighbor(self, global_id: int) -> int:
        return stable_mix64(global_id, self.seed) % self.shard_count

    def shard_for_prefix(self, prefix: Prefix) -> int:
        # Prefix-keyed lookups (data-plane attribution) still resolve;
        # they follow the same mixing so the map stays deterministic.
        network, length = prefix.key()
        return stable_mix64((network << 6) | length,
                            self.seed) % self.shard_count

    def splits_updates(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NeighborPartition(shards={self.shard_count}, "
                f"seed={self.seed})")


class PrefixRangePartition:
    """Contiguous prefix ranges → shards.

    The IPv4 space is divided into ``2**range_bits`` equal blocks
    (default: 4096 /12 ranges); each block is mixed with the seed and
    assigned wholly to one shard.  Prefixes *shorter* than
    ``range_bits`` (rare, covering multiple blocks) are keyed by their
    own network/length so they too map deterministically.
    """

    strategy = "prefix"

    def __init__(self, shard_count: int, seed: int = 0,
                 range_bits: int = 12) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not 0 < range_bits <= 32:
            raise ValueError("range_bits must be in (0, 32]")
        self.shard_count = shard_count
        self.seed = seed
        self.range_bits = range_bits

    def shard_for_neighbor(self, global_id: int) -> int:
        # Neighbor-keyed work (e.g. session-level bookkeeping) follows
        # the same deterministic mixing.
        return stable_mix64(global_id, self.seed) % self.shard_count

    def shard_for_prefix(self, prefix: Prefix) -> int:
        network, length = prefix.key()
        if length < self.range_bits:
            key = (network << 6) | length
        else:
            key = network >> (32 - self.range_bits)
        return stable_mix64(key, self.seed) % self.shard_count

    def splits_updates(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PrefixRangePartition(shards={self.shard_count}, "
                f"seed={self.seed}, range_bits={self.range_bits})")


STRATEGIES = ("neighbor", "prefix")


def make_partition(strategy: str, shard_count: int,
                   seed: int = 0) -> PartitionFn:
    """Build the named partition strategy (the ``shard_partition`` knob)."""
    if strategy == "neighbor":
        return NeighborPartition(shard_count, seed=seed)
    if strategy == "prefix":
        return PrefixRangePartition(shard_count, seed=seed)
    raise ValueError(
        f"unknown shard partition strategy {strategy!r}; "
        f"choose from {', '.join(STRATEGIES)}"
    )
