"""Tests for the per-figure experiment harness (small-scale smoke + shape checks)."""

from repro.experiments import (
    experiment_names,
    experiment_rows,
    format_table,
    measure_setup,
    measure_throughput,
    run_experiment,
)
from repro.overlay.profiles import LAN_PROFILE, PLANETLAB_PROFILE

SMALL = 0.05  # scale factor: keep the whole module under a minute


def test_registry_contains_every_figure():
    expected = {f"fig{n:02d}" for n in range(7, 18)} | {
        "microbench",
        "distinguishability",
        "ablation_transforms",
        "ablation_as_selection",
        "ablation_network_coding",
    }
    assert expected == set(experiment_names())


def test_fig07_shape():
    rows = experiment_rows("fig07", scale=SMALL)
    assert rows[0]["fraction_malicious"] < rows[-1]["fraction_malicious"]
    # Low-f anonymity is near 1, and degrades as f grows.
    assert rows[0]["source_anonymity"] > 0.9
    assert rows[-1]["source_anonymity"] < rows[0]["source_anonymity"]
    assert rows[0]["chaum_source_anonymity"] > 0.8


def test_fig11_slicing_beats_onion_on_lan():
    rows = experiment_rows("fig11", scale=0.2)  # 60 messages per path length
    assert [row["path_length"] for row in rows] == [2, 3, 4, 5]
    for row in rows:
        assert row["slicing_mbps"] > row["onion_mbps"]
        assert row["slicing_delivered"] == 60


def test_fig12_slicing_beats_onion_on_wan():
    rows = experiment_rows("fig12", scale=SMALL)
    for row in rows:
        assert row["slicing_mbps"] > row["onion_mbps"]


def test_fig14_setup_orderings():
    rows = experiment_rows("fig14")
    for row in rows:
        # Setup cost grows with the split factor; onion (no slicing work) is
        # the cheapest, exactly as in Fig. 14.
        assert row["onion_seconds"] < row["slicing_d2_seconds"]
        assert row["slicing_d2_seconds"] < row["slicing_d4_seconds"]
    # And it grows with path length.
    by_length = {row["path_length"]: row for row in rows}
    assert by_length[2]["slicing_d2_seconds"] < by_length[5]["slicing_d2_seconds"]


def test_setup_latency_wan_slower_than_lan():
    lan = measure_setup("slicing", LAN_PROFILE, 4, d=3)
    wan = measure_setup("slicing", PLANETLAB_PROFILE, 4, d=3)
    assert wan.setup_seconds > lan.setup_seconds
    lan_onion = measure_setup("onion", LAN_PROFILE, 4, seed=19)
    wan_onion = measure_setup("onion", PLANETLAB_PROFILE, 4, seed=19)
    assert wan_onion.setup_seconds > lan_onion.setup_seconds


def test_fig16_slicing_dominates_onion_erasure():
    rows = experiment_rows("fig16")
    for row in rows:
        assert row["information_slicing_success"] >= row["onion_erasure_success"] - 1e-9
    # Higher failure probability lowers success at equal redundancy.
    p01 = [r for r in rows if r["node_failure_prob"] == 0.1]
    p03 = [r for r in rows if r["node_failure_prob"] == 0.3]
    assert p01[3]["information_slicing_success"] > p03[3]["information_slicing_success"]


def test_fig17_slicing_reaches_high_success_with_little_redundancy():
    rows = experiment_rows("fig17", scale=0.3)
    by_redundancy = {row["added_redundancy"]: row for row in rows}
    assert by_redundancy[1.5]["information_slicing_success"] > 0.7
    assert (
        by_redundancy[1.5]["information_slicing_success"]
        > by_redundancy[1.5]["onion_erasure_success"]
    )
    # Standard onion routing is flat and low regardless of redundancy.
    assert by_redundancy[2.0]["standard_onion_success"] < 0.5


def test_microbenchmark_rows():
    rows = experiment_rows("microbench", scale=0.2)
    assert [row["d"] for row in rows] == [2, 3, 4, 5, 6, 8]
    for row in rows:
        # §7.1's cost table: absolute per-packet costs, no ratio column.
        assert set(row) == {
            "d",
            "encode_us_per_packet",
            "decode_us_per_packet",
            "max_output_mbps",
        }
        assert row["encode_us_per_packet"] > 0
        assert row["max_output_mbps"] > 0


def test_throughput_result_fields():
    result = measure_throughput("slicing", LAN_PROFILE, 3, d=2, num_messages=30)
    assert result.protocol == "information-slicing"
    assert result.messages_delivered == 30
    onion = measure_throughput("onion", LAN_PROFILE, 3, num_messages=30, seed=43)
    assert onion.protocol == "onion-routing"
    assert onion.messages_delivered == 30


def test_ablation_network_coding_golden_rows():
    # §4.4.1 on vs. off at smoke scale: both arms replay the same flows and
    # failure patterns, so these rates pin the relay protocol's behaviour.
    assert run_experiment("ablation_network_coding", scale=SMALL).rows == [
        {"regeneration": "enabled", "success_rate": 0.9333333333333333},
        {"regeneration": "disabled", "success_rate": 0.4666666666666667},
    ]


def test_format_table_renders_all_columns():
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}]
    text = format_table(rows)
    assert "a" in text and "b" in text and "0.2500" in text
    assert format_table([]) == "(no rows)"
