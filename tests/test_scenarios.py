"""Scenario-matrix tests: spec validation, expansion properties, cell runs.

The expansion guarantees are property-tested with hypothesis: every cell of
a random (valid) matrix gets a unique name and a unique seed, and expansion
is deterministic and independent of spec key order.  The CLI tests pin the
one-line ``error: ...`` / exit-2 contract for malformed specs, and the
end-to-end test runs one tiny cell through the runner at two worker counts
and byte-compares the artifacts.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import scenario_axis_params

from repro.experiments.__main__ import main as experiments_main
from repro.experiments.registry import REGISTRY
from repro.experiments.scenarios import (
    AXIS_DEFAULTS,
    ScenarioSpecError,
    build_scenario_profile,
    cell_name,
    cell_seed,
    expand_matrix,
    load_matrix,
    parse_matrix,
    register_matrix,
    register_matrix_file,
)

# -- spec validation ---------------------------------------------------------------


def test_minimal_spec_fills_defaults():
    matrix = parse_matrix({"name": "m", "axes": {"loss": [0.0, 0.1]}})
    assert matrix.cell_count() == 2
    assert matrix.listed_axes == ("loss",)
    assert set(matrix.axes) == set(AXIS_DEFAULTS)
    assert matrix.schemes == ("slicing", "onion", "onion-erasure", "sphinx")
    assert matrix.profile == "lan"


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ({}, 'needs a "name"'),
        ({"name": "-bad"}, "letters, digits and dashes"),
        ({"name": "m", "bogus": 1}, "unknown spec key"),
        ({"name": "m", "axes": {"latency": [1]}}, "unknown axis"),
        ({"name": "m", "axes": {"loss": []}}, "non-empty list"),
        ({"name": "m", "axes": {"loss": ["x"]}}, "must be numbers"),
        ({"name": "m", "axes": {"loss": [0.1, 0.1]}}, "duplicate values"),
        ({"name": "m", "axes": {"loss": [1.5]}}, "in [0, 1)"),
        ({"name": "m", "axes": {"adversary": [1.0]}}, "in [0, 1)"),
        ({"name": "m", "axes": {"jitter": [-0.1]}}, ">= 0"),
        ({"name": "m", "base": {"num_nodes": 0}}, ">= 1"),
        ({"name": "m", "axes": {"d": [2.5]}}, "integers >= 1"),
        ({"name": "m", "axes": {"d": [4], "d_prime": [3]}}, "must be >="),
        ({"name": "m", "schemes": []}, "non-empty"),
        ({"name": "m", "schemes": ["tor"]}, "unknown scheme"),
        ({"name": "m", "schemes": ["onion", "onion"]}, "duplicate"),
        ({"name": "m", "base": {"bogus": 1}}, "unknown base key"),
        ({"name": "m", "base": {"profile": "wan9"}}, "'lan' or 'planetlab'"),
        ({"name": "m", "base": {"messages": 0}}, "integer >= 1"),
        # Per-connection capacity is the substrate's, not a node's, so these
        # two axes would change no number.
        ({"name": "m", "axes": {"bandwidth_mbps": [10.0]}}, "unknown axis"),
        ({"name": "m", "axes": {"asymmetry": [4.0]}}, "unknown axis"),
        # Python's json reads Infinity; a cell would die mid-run scheduling
        # an event at time inf.
        ({"name": "m", "axes": {"jitter": [float("inf")]}}, "finite"),
        ({"name": "m", "axes": {"cpu_heterogeneity": [float("inf")]}}, "finite"),
    ],
)
def test_bad_specs_raise_one_line_errors(spec, fragment):
    with pytest.raises(ScenarioSpecError) as excinfo:
        parse_matrix(spec)
    message = str(excinfo.value)
    assert fragment in message
    assert "\n" not in message


def test_load_matrix_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioSpecError, match="invalid JSON"):
        load_matrix(path)
    with pytest.raises(ScenarioSpecError, match="cannot read"):
        load_matrix(tmp_path / "absent.json")


# -- expansion properties ----------------------------------------------------------

_axis_values = {
    "loss": st.lists(
        st.floats(0.0, 0.9).map(lambda v: round(v, 3)), min_size=1, max_size=3, unique=True
    ),
    "adversary": st.lists(
        st.floats(0.0, 0.9).map(lambda v: round(v, 3)), min_size=1, max_size=3, unique=True
    ),
    "jitter": st.lists(
        st.floats(0.0, 2.0).map(lambda v: round(v, 3)), min_size=1, max_size=2, unique=True
    ),
    "d": st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True),
    "path_length": st.lists(st.integers(1, 8), min_size=1, max_size=2, unique=True),
}


@st.composite
def matrix_specs(draw):
    axes = {}
    for axis in draw(
        st.sets(st.sampled_from(sorted(_axis_values)), min_size=1, max_size=3)
    ):
        axes[axis] = draw(_axis_values[axis])
    if "d" in axes:
        axes["d_prime"] = [max(axes["d"]) + draw(st.integers(0, 3))]
    return {"name": draw(st.sampled_from(["alpha", "b2", "grid-x"])), "axes": axes}


@given(spec=matrix_specs())
@settings(max_examples=60, deadline=None)
def test_every_cell_unique_name_and_seed(spec):
    cells = expand_matrix(parse_matrix(spec))
    names = [cell.name for cell in cells]
    seeds = [cell.seed for cell in cells]
    assert len(cells) == parse_matrix(spec).cell_count()
    assert len(set(names)) == len(names)
    assert len(set(seeds)) == len(seeds)
    assert all(0 <= seed < 2**31 - 1 for seed in seeds)


@given(spec=matrix_specs())
@settings(max_examples=40, deadline=None)
def test_expansion_deterministic_and_order_stable(spec):
    reordered = {
        "name": spec["name"],
        "axes": dict(reversed(list(spec["axes"].items()))),
    }
    first = expand_matrix(parse_matrix(spec))
    second = expand_matrix(parse_matrix(reordered))
    assert [cell.name for cell in first] == [cell.name for cell in second]
    assert [cell.axes for cell in first] == [cell.axes for cell in second]
    assert [cell.seed for cell in first] == [cell.seed for cell in second]


def test_cell_name_strips_underscores_and_sorts():
    name = cell_name("m", {"path_length": 5, "loss": 0.25})
    assert name == "scn-m-loss0.25-pathlength5"
    assert cell_seed("m", {"loss": 0.25}) != cell_seed("m", {"loss": 0.26})


# -- registration ------------------------------------------------------------------


def _unregister(prefix: str):
    from repro.experiments import scenarios

    for key in [k for k in REGISTRY if k.startswith(prefix)]:
        del REGISTRY[key]
    scenarios._REGISTERED_MATRICES.pop(prefix.split("-")[1], None)


def test_register_matrix_idempotent_but_conflicting_spec_rejected():
    matrix = parse_matrix({"name": "regtest", "axes": {"loss": [0.0, 0.1]}})
    try:
        first = register_matrix(matrix)
        again = register_matrix(matrix)
        assert [e.name for e in first] == [e.name for e in again]
        conflicting = parse_matrix({"name": "regtest", "axes": {"loss": [0.0, 0.2]}})
        with pytest.raises(ScenarioSpecError, match="different spec"):
            register_matrix(conflicting)
    finally:
        _unregister("scn-regtest-")


# -- CLI contract ------------------------------------------------------------------


def test_cli_bad_spec_is_one_line_exit_2(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"axes": {}}), encoding="utf-8")
    code = experiments_main(["run", "--matrix", str(spec_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_cli_non_finite_axis_is_one_line_exit_2(tmp_path, capsys):
    spec_path = tmp_path / "inf.json"
    spec_path.write_text(
        '{"name": "inf", "axes": {"jitter": [Infinity]}, "schemes": ["slicing"],'
        ' "base": {"messages": 8, "num_nodes": 60}}',
        encoding="utf-8",
    )
    try:
        code = experiments_main(
            ["run", "--matrix", str(spec_path), "--out", str(tmp_path / "out")]
        )
    finally:
        _unregister("scn-inf-")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "finite" in captured.err
    assert captured.err.count("\n") == 1


def test_cli_run_without_names_or_matrix_fails(capsys):
    code = experiments_main(["run"])
    assert code == 2
    assert "no experiment names" in capsys.readouterr().err


# -- end-to-end --------------------------------------------------------------------

TINY_SPEC = {
    "name": "tiny",
    "axes": {"loss": [0.3]},
    "schemes": ["slicing", "onion"],
    "base": {"messages": 8, "num_nodes": 60},
}


def test_cell_runs_byte_identical_across_worker_counts(tmp_path):
    spec_path = tmp_path / "tiny.json"
    spec_path.write_text(json.dumps(TINY_SPEC), encoding="utf-8")
    try:
        matrix = register_matrix_file(spec_path)
        (cell,) = expand_matrix(matrix)
        from repro.experiments import run_experiment

        one = run_experiment(cell.name, out_dir=tmp_path / "w1", workers=1)
        two = run_experiment(cell.name, out_dir=tmp_path / "w2", workers=2)
        assert one.artifact.read_bytes() == two.artifact.read_bytes()
        rows = one.rows
        assert [row["scheme"] for row in rows] == ["slicing", "onion"]
        for row in rows:
            assert row["throughput_mbps"] > 0
            assert row["setup_seconds"] > 0
            assert 0.0 <= row["success_probability"] <= 1.0
    finally:
        _unregister("scn-tiny-")


def test_registered_cell_runs_on_a_spawn_pool(tmp_path, monkeypatch):
    # Registered through the public API alone: no spec file, no environment
    # variable.  Spawned workers inherit no registry, so the trial function
    # itself must travel in the payload.
    import multiprocessing

    spawn = multiprocessing.get_context("spawn")
    (cell,) = register_matrix(parse_matrix({**TINY_SPEC, "name": "spawnprobe"}))
    try:
        from repro.experiments import run_experiment

        one = run_experiment(cell.name, out_dir=tmp_path / "w1", workers=1)
        monkeypatch.setattr(multiprocessing, "get_context", lambda *args: spawn)
        two = run_experiment(cell.name, out_dir=tmp_path / "w2", workers=2)
        assert one.artifact.read_bytes() == two.artifact.read_bytes()
    finally:
        _unregister("scn-spawnprobe-")


def test_scenario_profile_axes_change_the_network():
    base = {"profile": "lan", "jitter": 0.5, "cpu_heterogeneity": 1.0}
    profile = build_scenario_profile(base)
    rng = np.random.default_rng(7)
    network = profile.build_network(["src-0", "relay-1", "destination"], rng)
    loads = {a: network.resources(a).load_factor for a in network.addresses()}
    assert len(set(loads.values())) > 1  # heterogeneity spread the load factors
    # Jitter produced an explicit (asymmetric-free) pairwise latency.
    assert network.latency("src-0", "relay-1") != profile.latency_seconds


# -- profile-axis properties (hypothesis over the shared strategies) ----------------

_PROFILE_ADDRESSES = ["src-0", "src-1", "relay-0", "relay-1", "sphinx-source", "destination"]


@given(params=scenario_axis_params())
@settings(max_examples=60, deadline=None)
def test_axis_assignments_always_build_valid_profiles(params):
    """Any in-range axis assignment yields a structurally valid testbed."""
    from repro.overlay.profiles import get_profile

    base = get_profile(params["profile"])
    profile = build_scenario_profile(params)
    assert profile.name == base.name
    assert profile.latency_seconds == base.latency_seconds
    # Jitter only ever adds on top of the base profile's latency spread.
    assert profile.jitter == pytest.approx(base.latency_sigma + params["jitter"])
    assert profile.resources == base.resources
    network = profile.build_network(_PROFILE_ADDRESSES, np.random.default_rng(11))
    for address in _PROFILE_ADDRESSES:
        # Heterogeneity inflates load factors; it never drops below the base.
        assert network.resources(address).load_factor >= profile.resources.load_factor
    for i, a in enumerate(_PROFILE_ADDRESSES):
        for b in _PROFILE_ADDRESSES[i + 1 :]:
            assert network.latency(a, b) > 0.0


@given(
    seed=st.integers(0, 2**16),
    addresses=st.lists(
        st.sampled_from(_PROFILE_ADDRESSES), min_size=2, max_size=6, unique=True
    ),
)
@settings(max_examples=40, deadline=None)
def test_zero_axis_cell_matches_the_base_profile_bit_for_bit(seed, addresses):
    """All-neutral axes reproduce the base LAN testbed exactly."""
    from repro.overlay.profiles import get_profile

    base = get_profile("lan")
    profile = build_scenario_profile(
        {
            "profile": "lan",
            "jitter": 0.0,
            "cpu_heterogeneity": 0.0,
        }
    )
    assert profile.resources == base.resources
    scenario_net = profile.build_network(addresses, np.random.default_rng(seed))
    base_net = base.build_network(addresses, np.random.default_rng(seed))
    for address in addresses:
        assert scenario_net.resources(address) == base_net.resources(address)
    for a in addresses:
        for b in addresses:
            if a != b:
                assert scenario_net.latency(a, b) == base_net.latency(a, b)
