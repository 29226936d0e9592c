"""Tiny-scale tests of the benchmark itself.

Each workload runs, the emitted metric names match ``BENCHMARK.json``,
and the correctness check catches a dropped frame and a mis-forwarded
packet.  Run with ``python3 -m pytest vbgpbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import perf
from repro.bgp.transport import FrameReassembler
from vbgpbench import phases, runs
from vbgpbench.checks import Mismatches, check_delivery, check_world
from vbgpbench.tracing import Hook, Tracer
from vbgpbench.world import World

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return replace(runs.WORKLOADS[name], prefixes=300, churn_ops=40,
                   forward_ops=40)


def test_workload_names_match_the_spec():
    assert sorted(runs.WORKLOADS) == sorted(
        workload["name"] for workload in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(runs.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    metrics, attempted, mismatches, _samples = runs.run_untraced(
        tiny(name), seed=3, seconds=0.2)
    assert mismatches.count == 0, mismatches.examples
    assert attempted > 0
    assert {name: metric["unit"] for name, metric in metrics.items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    # RSS growth of a 300-prefix table can vanish into freed pages.
    del metrics["ingest_rss_bytes_per_prefix"]
    assert all(metric["value"] > 0 for metric in metrics.values())


@pytest.mark.parametrize("name", sorted(runs.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    metrics, _attempted, mismatches, samples = runs.run_traced(
        tiny(name), seed=3, spans_out=None)
    assert mismatches.count == 0, mismatches.examples
    assert samples["missing_hooks"] == []
    assert {name: metric["unit"] for name, metric in metrics.items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    # Self times partition the traced wall clock.
    assert metrics["trace.self_sum_fraction"]["value"] == pytest.approx(1.0)
    assert metrics["netsim.lpm.lookup_calls"]["value"] > 0


def test_spans_are_written_on_request(tmp_path):
    path = tmp_path / "spans.tsv"
    _metrics, _attempted, _mismatches, samples = runs.run_traced(
        tiny("churn_fanout"), seed=3, spans_out=str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("span\tlayer\top\tparent")
    assert len(lines) == samples["spans"] + 1
    roots = [line for line in lines[1:] if line.split("\t")[3] == "-1"]
    assert roots and all("\tbench.load\t" in line for line in roots)


def test_inputs_follow_the_seed():
    first = phases.make_tables(5, 2, 200)
    again = phases.make_tables(5, 2, 200)
    other = phases.make_tables(6, 2, 200)
    assert [t.frames for t in first] == [t.frames for t in again]
    assert [t.frames for t in first] != [t.frames for t in other]


def _loaded_world(upstreams):
    tables = phases.make_tables(7, upstreams, 300)
    world = World(upstreams, 2)
    phases.ingest(world, tables)
    return world, tables


def test_check_catches_a_dropped_frame():
    world, tables = _loaded_world(1)
    expected = [dict(table.expected) for table in tables]
    clean = Mismatches()
    check_world(world, expected, clean)
    assert clean.count == 0, clean.examples
    sink = world.experiments[0]
    frames = FrameReassembler().feed(bytes(sink.stream))
    updates = [i for i, frame in enumerate(frames) if frame[18] == 2]
    del frames[updates[len(updates) // 2]]
    sink.stream[:] = b"".join(frames)
    broken = Mismatches()
    check_world(world, expected, broken)
    assert broken.count > 0


def test_check_catches_a_misforwarded_packet():
    world, tables = _loaded_world(2)
    packets = phases.make_packets(world, tables, seed=1, count=100)
    wiring = phases.Wiring(world)
    vmacs = [vmac for _name, _mac, vmac in wiring.neighbors]
    port, frame, expect = wiring.frame(
        next(packet for packet in packets if packet.egress))
    assert port is wiring.exp_port
    # The experiment picked one neighbor; send it toward the other.
    wrong = replace(frame, dst=vmacs[1 - vmacs.index(frame.dst)])
    world.push_frame(port, wrong)
    assert check_delivery(world.delivered, expect) is not None
    world.delivered.clear()
    world.push_frame(port, frame)
    assert check_delivery(world.delivered, expect) is None


def test_churn_expectation_follows_the_frames():
    tables = phases.make_tables(7, 1, 300)
    frames, after = phases.churn_frames(tables, 200)
    world = World(1, 2)
    phases.ingest(world, tables)
    phases.churn(world, frames)
    mismatches = Mismatches()
    check_world(world, after, mismatches)
    assert mismatches.count == 0, mismatches.examples
    assert after[0] != tables[0].expected


def test_per_update_counts_leave_out_joins():
    tracer = Tracer()
    tracer.install()
    try:
        round_, _world = runs._round(
            tiny("fulltable_ingest"),
            runs._make_inputs(tiny("fulltable_ingest"), 3), Mismatches(),
            tracer=tracer)
    finally:
        tracer.uninstall()
    updates = tracer.span_counts("update")
    joins = tracer.span_counts("join")
    assert joins["bgp.messages.encode"] > 0
    assert updates["bgp.transport.send"] > 0
    assert tracer.ops == round_.ops


def test_missing_hook_is_reported_not_fatal():
    tracer = Tracer((Hook("gone", "repro.vbgp.node:NoSuchClass.method"),
                     Hook("gone", "repro.vbgp.node:VbgpNode.no_such_method"),
                     Hook("gone", "repro.no_such_module:Thing.method")))
    tracer.install()
    tracer.uninstall()
    assert len(tracer.missing) == 3


def test_non_default_flags_are_refused():
    with perf.flags(lpm_cache=False):
        with pytest.raises(runs.RefusedRun):
            runs.environment(seed=1)
    assert runs.environment(seed=1)["perf_flags"]["lpm_cache"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "vbgpbench", tmp_path / "vbgpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "vbgpbench/run.py", "--workload", "churn_fanout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
