"""Shard-count invariance: output identical at shards ∈ {1, 2, 4, 8}.

The quick sweeps run tier-1-sized workloads; the acceptance test runs
the CI-gate churn (≥5k updates).  A rigged harness proves the shard
comparison detects divergence.
"""

import pytest

from repro.conformance.differential import (
    DifferentialHarness,
    SHARD_COUNTS,
    _RunResult,
)


def test_shard_counts_cover_issue_matrix():
    assert SHARD_COUNTS == (1, 2, 4, 8)


def test_neighbor_partition_byte_identical_small():
    harness = DifferentialHarness(update_count=240, prefix_count=400)
    report = harness.run_shards(counts=(1, 2, 4))
    assert report.ok, report.format()
    assert report.combinations == 3
    assert "shard combinations" in report.format()


def test_prefix_partition_structurally_identical_small():
    harness = DifferentialHarness(update_count=240, prefix_count=400)
    report = harness.run_shards(counts=(1, 2, 4), partition="prefix")
    assert report.ok, report.format()


@pytest.mark.slow
def test_shard_sweep_acceptance():
    """The CI gate: byte-identical fan-out at every shard count on a
    >=5k-update churn (ISSUE acceptance criterion)."""
    harness = DifferentialHarness(update_count=5000)
    report = harness.run_shards(counts=SHARD_COUNTS)
    assert report.ok, report.format()
    assert report.updates >= 5000
    assert report.combinations == len(SHARD_COUNTS)


class _Rigged(DifferentialHarness):
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


def test_shard_sweep_detects_wire_divergence():
    rigged = _Rigged([_result(), _result(wire=b"DIFF")])
    report = rigged.run_shards(counts=(1, 2))
    assert not report.ok
    assert any("wire bytes" in m for m in report.mismatches)
    assert any("shards=2" in m for m in report.mismatches)


def test_shard_sweep_skips_wire_check_for_prefix_partition():
    """Prefix partitioning may repack NLRI: raw
    bytes may differ while structure and change streams must not."""
    rigged = _Rigged([_result(wire=b"one"), _result(wire=b"two")])
    report = rigged.run_shards(counts=(1, 2), partition="prefix")
    assert report.ok, report.format()


def test_shard_sweep_detects_structural_divergence_any_partition():
    rigged = _Rigged([_result(), _result(structural=b"DIFF")])
    report = rigged.run_shards(counts=(1, 4), partition="prefix")
    assert not report.ok
    assert any("Loc-RIB" in m for m in report.mismatches)
