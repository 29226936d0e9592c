"""``peering verify`` CLI tests: the §6e checkers over a live platform."""

import pytest

from repro.toolkit import ExperimentClient, ToolkitCli
from tests.conftest import approve_experiment


@pytest.fixture
def cli(small_world):
    scheduler, platform, internet = small_world
    approve_experiment(platform, "exp")
    client = ExperimentClient(scheduler, "exp", platform)
    for pop in platform.pops:
        client.openvpn_up(pop)
        client.bird_start(pop)
    scheduler.run_for(10)
    return ToolkitCli(client)


def test_verify_usage_listed(cli):
    assert "peering verify" in cli.run("peering bogus")


def test_verify_invariants_live_platform(cli):
    out = cli.run("peering verify invariants")
    for name in (
        "vmac_bijectivity",
        "addpath_completeness",
        "community_propagation",
        "no_cross_experiment_leakage",
        "kernel_consistency",
    ):
        assert f"{name}: ok" in out, out
    assert "VIOLATED" not in out


def test_verify_invariants_subset(cli):
    out = cli.run("peering verify invariants kernel_consistency")
    assert out.startswith("kernel_consistency: ok")
    assert "vmac_bijectivity" not in out


def test_verify_invariants_unknown_name(cli):
    out = cli.run("peering verify invariants bogus")
    assert out.startswith("error:")
    assert "unknown invariant" in out


def test_verify_codec(cli):
    out = cli.run("peering verify codec --frames 400 --seed 9")
    assert "-> OK" in out
    assert "corpus replays" in out


def test_verify_differential_small(cli):
    # Without --shards/--backend the CLI sweeps every SHARD_COUNTS entry.
    out = cli.run("peering verify differential --updates 40")
    assert "differential: ok" in out
    assert "4 shard combinations" in out


def test_verify_differential_subsample_option(cli):
    # The flag lattice is gone; --subsample is an unknown option now.
    output, status = cli.run_with_status(
        "peering verify differential --updates 40 --subsample 12")
    assert status == 2
    assert output == "error: unknown option: --subsample"


def test_verify_differential_fulltable_workload(cli):
    out = cli.run(
        "peering verify differential --updates 30 --prefixes 300 "
        "--workload fulltable --shards 1,2"
    )
    assert "differential: ok" in out
    assert "2 shard combinations" in out
    assert "workload=fulltable" in out


def test_verify_differential_shard_sweep(cli):
    out = cli.run("peering verify differential --updates 40 --shards 1,2,4")
    assert "differential: ok" in out
    assert "3 shard combinations" in out


def test_verify_differential_shard_sweep_prefix_partition(cli):
    out = cli.run(
        "peering verify differential --updates 40 --shards 1,2 "
        "--partition prefix"
    )
    assert "differential: ok" in out
    assert "2 shard combinations" in out


def test_verify_differential_backend_sweep(cli):
    out = cli.run(
        "peering verify differential --updates 40 --backend async "
        "--shards 2,4"
    )
    assert "differential: ok" in out
    # model/shards=1 reference + async at each requested count.
    assert "3 backend combinations" in out


def test_verify_differential_backend_mp(cli):
    out = cli.run(
        "peering verify differential --updates 30 --prefixes 200 "
        "--backend mp --shards 2"
    )
    assert "differential: ok" in out
    assert "2 backend combinations" in out


def test_verify_differential_backend_list(cli):
    out = cli.run(
        "peering verify differential --updates 30 --prefixes 200 "
        "--backend async,mp --shards 2"
    )
    assert "differential: ok" in out
    assert "3 backend combinations" in out


def test_verify_usage_mentions_shards(cli):
    assert "--shards" in cli.run("peering bogus")
    assert "--backend" in cli.run("peering bogus")


def test_verify_usage_mentions_workload(cli):
    out = cli.run("peering bogus")
    assert "--workload" in out
    assert "fulltable" in out


def test_verify_differential_unknown_workload(cli):
    out = cli.run("peering verify differential --workload bogus")
    assert out.startswith("error:")
    assert "unknown workload" in out


def test_verify_option_missing_value(cli):
    for option in ("--workload", "--updates", "--shards"):
        out = cli.run(f"peering verify differential {option}")
        assert out == f"error: {option} requires a value"
