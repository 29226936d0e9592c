"""Differential proof: real backends are byte-identical to the sync
reference (ISSUE 9 acceptance criterion, small-scale tier-1 leg).

The CI ``parallel-backend`` job runs the full matrix (backend × shards
× churn/fulltable at CI scale); these tests keep a fast always-on
version in tier-1 so a byte-divergence regression is caught locally.
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.conformance.differential import BACKENDS, DifferentialHarness
from repro.parallel import live_worker_count


@pytest.fixture(autouse=True)
def _restore_perf_flags():
    saved = perf.FLAGS
    yield
    perf.FLAGS = saved
    perf.clear_caches()


def test_backends_constant_covers_flag_values():
    assert BACKENDS == ("model", "async", "mp")


def test_async_backend_byte_identical_on_churn():
    harness = DifferentialHarness(update_count=250, prefix_count=250)
    report = harness.run_backends(backends=("async",), counts=(1, 2, 4))
    assert report.mode == "backend"
    assert report.ok, report.format()
    assert report.combinations == 4  # model/1 reference + 3 async runs


@pytest.mark.timeout(300)
def test_mp_backend_byte_identical_on_churn():
    harness = DifferentialHarness(update_count=200, prefix_count=200)
    report = harness.run_backends(backends=("mp",), counts=(2, 4))
    assert report.ok, report.format()
    assert live_worker_count() == 0  # every scenario closed its pool


def test_backends_byte_identical_on_fulltable():
    harness = DifferentialHarness(
        update_count=100, prefix_count=400, workload="fulltable"
    )
    report = harness.run_backends(backends=("async",), counts=(4,))
    assert report.workload == "fulltable"
    assert report.ok, report.format()


def test_prefix_partition_holds_structural_contract():
    """The prefix partition may repack UPDATEs, so
    backends are held to the structural + change-stream contract."""
    harness = DifferentialHarness(update_count=150, prefix_count=150)
    report = harness.run_backends(
        backends=("async",), counts=(4,), partition="prefix"
    )
    assert report.ok, report.format()
