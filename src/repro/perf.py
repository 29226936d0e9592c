"""Scale-out knobs for the vBGP fan-out, plus the process-wide cache registry.

Every fast path of the pipeline is unconditional: one implementation per
layer (DESIGN.md §6b).  What remains here is one measurement knob and the
scale-out knobs of :mod:`repro.shard` (DESIGN.md §6f/§6j):

* ``lpm_cache``       — the per-table LRU lookup cache in front of the
  LPM stride trie, read when an ``LpmTable`` is built (off = capacity 0).
  The cache speeds up forwarding but slows down churn, so the knob stays
  for A/B runs; ``vbgpbench`` refuses to run unless it is on.
* ``shards``          — number of fan-out worker shards, read at call time
  (1 = the unsharded reference pipeline),
* ``shard_partition`` — partition strategy, ``"neighbor"`` (default;
  byte-identical output for any shard count) or ``"prefix"``
  (may split one UPDATE across shards, so only the decoded route
  changes are invariant),
* ``shard_seed``      — seed mixed into the deterministic partition
  hash (``repro.shard.partition.stable_mix64``),
* ``shard_backend``   — how shard workers execute: ``"model"`` (serial
  execution with wall-clock *attributed* to shards), ``"async"`` (one
  asyncio task per shard worker on a private event loop), or ``"mp"``
  (a ``multiprocessing`` worker pool).  Every backend is proven
  byte-identical to the sync reference by the differential harness.

Modules that keep a process-wide memo (wire-encoding caches, interning
pools, the zero-copy encode buffer) register a clearer with
:func:`register_cache_clearer`; :func:`clear_caches` drops them all, and
changing the flags clears them so runs under different knobs start cold.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator

__all__ = ["FLAGS", "PerfFlags", "set_flags", "flags", "clear_caches",
           "register_cache_clearer"]


@dataclass(frozen=True)
class PerfFlags:
    """The LPM cache knob and the scale-out knobs (shipped defaults)."""

    lpm_cache: bool = True
    shards: int = 1
    shard_partition: str = "neighbor"
    shard_seed: int = 0
    shard_backend: str = "model"


FLAGS = PerfFlags()

_cache_clearers: list[Callable[[], None]] = []


def register_cache_clearer(clearer: Callable[[], None]) -> None:
    """Modules owning a process-wide cache register a clearer here."""
    _cache_clearers.append(clearer)


def clear_caches() -> None:
    """Drop every registered cache (also done whenever flags change)."""
    for clearer in _cache_clearers:
        clearer()


def set_flags(**changes: object) -> PerfFlags:
    """Update the global flags; returns the new flag set.

    Unknown flag names raise ``TypeError`` (via ``dataclasses.replace``).
    All registered caches are cleared so stale entries from the previous
    configuration cannot leak into the next run.
    """
    global FLAGS
    FLAGS = replace(FLAGS, **changes)
    clear_caches()
    return FLAGS


@contextmanager
def flags(**changes: object) -> Iterator[PerfFlags]:
    """Temporarily override flags (tests and scale-out benchmarks)."""
    global FLAGS
    saved = FLAGS
    try:
        yield set_flags(**changes)
    finally:
        FLAGS = saved
        clear_caches()
