"""Differential tests: the pipeline's output pinned by golden digests.

``golden_fingerprints.json`` holds, per workload, the SHA-256 of each of
the five canonical streams :class:`DifferentialHarness` produces
(Loc-RIB/kernel/counter state, the decoded change streams and the raw
wire bytes in both directions).  They were recorded from a tree in which
every optional fast path could still be switched off and the full
256-combination on/off lattice replayed identically, so matching them
proves the pipeline computes what the simple reference computed, byte
for byte on the wire.  The quick tests check the small workloads; the
slow ones the CI-gate sizes.  The digests must not depend on process
state (hash seed, earlier PoPs in the same process).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import perf
from repro.conformance.differential import DifferentialHarness, _RunResult
from repro.platform.pop import PointOfPresence, PopConfig
from repro.security.state import EnforcerState
from repro.sim import Scheduler
from repro.vbgp.allocator import GlobalNeighborRegistry

GOLDEN = json.loads(
    (Path(__file__).with_name("golden_fingerprints.json")).read_text()
)
ROOT = Path(__file__).resolve().parents[2]


def _harness(name: str) -> DifferentialHarness:
    spec = GOLDEN[name]
    return DifferentialHarness(
        update_count=spec["update_count"],
        prefix_count=spec["prefix_count"],
        workload=spec["workload"],
    )


def _assert_golden(name: str) -> None:
    assert _harness(name).fingerprint() == GOLDEN[name]["digests"]


def test_differential_sweep_small():
    """The churn workload (240 updates over 400 prefixes) reproduces the
    golden digests of all five streams."""
    _assert_golden("churn_240_400")


def test_differential_fulltable_small():
    """The full-table workload at reduced scale: table load + churn tail
    reproduces the golden digests."""
    _assert_golden("fulltable_120_600")


def test_differential_fulltable_composed_with_shards():
    """The neighbor partition never splits an UPDATE, so a 4-shard
    fan-out reproduces the unsharded golden digests, wire bytes too."""
    with perf.flags(shards=4):
        _assert_golden("fulltable_120_600")


def test_golden_digests_detect_a_different_workload():
    """A checker that cannot fail is not a checker: another seed changes
    the state and wire digests."""
    spec = GOLDEN["churn_240_400"]
    other = DifferentialHarness(
        update_count=spec["update_count"], prefix_count=spec["prefix_count"],
        seed=7,
    ).fingerprint()
    for name in ("structural", "changes_to_experiment", "wire_to_experiment"):
        assert other[name] != spec["digests"][name]


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_fingerprints_independent_of_hash_seed(hash_seed):
    code = (
        "import json\n"
        "from repro.conformance.differential import DifferentialHarness\n"
        "h = DifferentialHarness(update_count=240, prefix_count=400)\n"
        "print(json.dumps(h.fingerprint()))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    assert json.loads(result.stdout) == GOLDEN["churn_240_400"]["digests"]


def test_fingerprints_independent_of_earlier_pops():
    """MACs come from a process-wide counter: building other PoPs and
    running another scenario first must not move any digest."""
    scheduler = Scheduler()
    for pop_id in range(3):
        pop = PointOfPresence(
            scheduler, PopConfig(name=f"p{pop_id}", pop_id=pop_id),
            platform_asn=47065, platform_asns=frozenset({47065}),
            registry=GlobalNeighborRegistry(), enforcer_state=EnforcerState(),
        )
        pop.provision_neighbor("upstream", 65010, kind="peer")
    _harness("fulltable_120_600").fingerprint()
    _assert_golden("churn_240_400")


@pytest.mark.slow
def test_differential_sweep_acceptance():
    """The CI gate: golden digests on a 5k-update churn."""
    _assert_golden("churn_5000")


@pytest.mark.slow
def test_differential_fulltable_acceptance():
    """Full-table golden digests at CI scale (20k-prefix table + churn
    tail), unsharded and composed with shards=4."""
    _assert_golden("fulltable_2000_20000")
    with perf.flags(shards=4):
        _assert_golden("fulltable_2000_20000")


class _Rigged(DifferentialHarness):
    """Returns canned results so the comparison logic is testable."""

    def __init__(self, results):
        super().__init__(update_count=1)
        self._results = list(results)

    def _run_scenario(self):
        return self._results.pop(0)


def _result(structural=b"s", changes=b"c", wire=b"w"):
    return _RunResult(
        structural=structural,
        changes_to_experiment=changes,
        changes_to_upstream=changes,
        wire_to_experiment=wire,
        wire_to_upstream=wire,
    )


def test_detects_structural_divergence():
    rigged = _Rigged([_result(), _result(), _result(structural=b"DIFF")])
    report = rigged.run_shards(counts=(1, 2, 4))
    assert not report.ok
    assert any("Loc-RIB" in m for m in report.mismatches)
    assert "shards=4" in report.mismatches[0]
