"""The compact picklable op protocol between the engine and its workers.

A real-parallel shard backend (DESIGN.md §6j) splits one drain of the
:class:`~repro.shard.engine.ShardedFanout` pipeline into two phases:

* the **control phase** runs in the parent, in global ingress (``seq``)
  order: Adj-RIB-In mutation, kernel route ops, and — crucially —
  ADD-PATH path-id allocation, whose sequential counter makes its
  results order-dependent.  Running it in arrival order keeps every
  allocated id identical to the sync reference.
* the **encode phase** is the expensive, *pure* part: turning each
  resolved :class:`~repro.bgp.messages.UpdateMessage` into wire bytes.
  It carries no shared state, so it fans out to workers and the results
  merge back by :class:`~repro.shard.engine.MergeKey`.

This module defines the job objects exchanged across that seam and the
(de)serialisation used by the ``mp`` backend.  Jobs are packed as plain
tuples — ``(job_index, addpath, attributes, nlri, withdrawn)`` — rather
than pickling whole :class:`UpdateMessage` objects: the tuple form
strips the per-message ``_wire_cache`` memo dict, and pickle's memo
table then deduplicates the interned :class:`PathAttributes` shared by
a batch, keeping one dispatch's payload compact.  Results flow back as
raw wire frames — produced by the same (zero-copy, when enabled)
encode buffers the in-process path uses — so the parent never decodes
or re-encodes anything a worker already paid for.

Session objects never cross the process boundary: the parent keeps the
job list and workers address results by ``job_index``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bgp.messages import UpdateMessage
from repro.shard.engine import MergeKey

__all__ = [
    "EncodeJob",
    "EncodeResult",
    "encode_packed_batch",
    "pack_job",
    "unpack_job",
]


@dataclass
class EncodeJob:
    """One pending wire encode, resolved by the control phase.

    ``sessions`` — every session that receives this frame — stays
    parent-side (sessions are not picklable and must not cross the
    fork); ``addpath`` is their shared negotiated mode, captured at
    emit time, so one worker encode serves them all.
    """

    key: MergeKey
    sessions: tuple
    addpath: bool
    update: UpdateMessage
    counter: Optional[str]


@dataclass
class EncodeResult:
    """One completed encode: the job's index and its wire frame."""

    index: int
    frame: bytes


def pack_job(index: int, job: EncodeJob) -> tuple:
    """Compact picklable form of one job (parent → worker)."""
    update = job.update
    return (
        index,
        job.addpath,
        update.attributes,
        update.nlri,
        update.withdrawn,
    )


def unpack_job(packed: tuple) -> Tuple[int, bool, UpdateMessage]:
    """Rebuild ``(index, addpath, update)`` from :func:`pack_job`."""
    index, addpath, attributes, nlri, withdrawn = packed
    return index, addpath, UpdateMessage(
        attributes=attributes, nlri=nlri, withdrawn=withdrawn
    )


def encode_packed_batch(
    packed_jobs: Sequence[tuple],
    fault_countdown: Optional[int] = None,
) -> Tuple[List[Tuple[int, bytes]], Optional[int]]:
    """Encode a packed batch; shared by the mp worker loop and tests.

    Returns ``(results, remaining_fault_countdown)``.  When
    ``fault_countdown`` reaches zero mid-batch the caller is expected
    to crash (the mp worker calls ``os._exit``) — the countdown is
    threaded through so the crash-injection seam lives in one place.
    """
    results: List[Tuple[int, bytes]] = []
    for packed in packed_jobs:
        if fault_countdown is not None:
            if fault_countdown <= 0:
                return results, 0
            fault_countdown -= 1
        index, addpath, update = unpack_job(packed)
        results.append((index, update.encode(addpath=addpath)))
    return results, fault_countdown
