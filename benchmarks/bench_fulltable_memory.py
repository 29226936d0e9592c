"""§6g — Loc-RIB resident memory per stored route.

Figure 6a shows memory scaling linearly with known routes; §6g attacks
the constant.  A plain Loc-RIB would store one ``RibEntry`` + ``Route``
object pair per candidate; :class:`repro.bgp.rib.LocRib` packs each
candidate into three ints (peer id, path id, attribute handle) and
interns attribute values per RIB, so the per-candidate cost collapses to
the triple plus an amortized share of the handle tables.

This bench loads a DFZ-shaped table from two upstream feeds (two
candidates per prefix — distinct-but-equal attribute objects, the worst
case for naive storage and exactly what the flyweight interning
collapses) and walks the actual object graph with
:func:`repro.metrics.resident_bytes`.  The committed baseline gates the
bytes per stored route at ±25%.

``FULLTABLE_MEMORY_PREFIXES`` overrides the scale; per-route figures
are nearly scale-invariant (the handle tables amortize), committed
baselines use the default.
"""

import gc
import os

from benchmarks.reporting import format_table, report, report_json
from repro.bgp.attributes import Route
from repro.bgp.decision import best_path
from repro.bgp.rib import LocRib
from repro.internet.fulltable import FullTableGenerator
from repro import perf
from repro.metrics import resident_bytes

PREFIXES = int(os.environ.get("FULLTABLE_MEMORY_PREFIXES", "200000"))
FEEDS = 2
SEED = 20260807
SAMPLE = 64  # prefixes whose tracked best entry is cross-checked


def load():
    """Load the table from ``FEEDS`` upstream feeds into a fresh RIB.

    Each feed uses its own generator instance, so equal attribute values
    arrive as distinct objects — a RIB that does not deduplicate pays
    for every copy.
    """
    perf.clear_caches()
    gc.collect()
    rib = LocRib(select=best_path)
    for feed in range(FEEDS):
        generator = FullTableGenerator(prefix_count=PREFIXES, seed=SEED)
        peer = f"upstream-{feed}"
        for index, prefix in enumerate(generator.prefixes):
            rib.replace(peer, Route(
                prefix=prefix, attributes=generator.attributes_for(index),
            ))
    return rib


def measure():
    rib = load()
    routes = len(rib)
    total = resident_bytes(rib)
    sample_prefixes = FullTableGenerator(
        prefix_count=PREFIXES, seed=SEED).prefixes[:SAMPLE]
    sample = [
        (rib.best(prefix), best_path(rib.candidates(prefix)))
        for prefix in sample_prefixes
    ]
    del rib
    perf.clear_caches()
    gc.collect()
    return total, routes, sample


def test_fulltable_memory(benchmark):
    total, routes, sample = benchmark.pedantic(
        lambda: measure(), rounds=1, iterations=1,
    )
    assert routes == FEEDS * PREFIXES
    # The tracked best equals a full decision fold over the candidates
    # (the differential harness proves this end-to-end; this is the
    # in-bench spot check).
    assert all(best == folded for best, folded in sample)
    per_route = total / routes

    rows = [
        ["table prefixes", f"{PREFIXES:,}", "—"],
        ["stored candidates", f"{routes:,}", f"{FEEDS} feeds x {PREFIXES:,}"],
        ["Loc-RIB B/route", f"{per_route:,.0f}", "columnar storage"],
    ]
    report(
        "fulltable_memory",
        "§6g Loc-RIB resident bytes per stored route "
        "(deep object-graph walk)\n"
        + format_table(["metric", "measured", "note"], rows),
    )
    report_json("fulltable_memory", {
        "prefixes": PREFIXES,
        "routes": routes,
        "columnar_backend_bytes_per_route": per_route,
    })
