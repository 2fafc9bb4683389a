"""Ablation experiments (§9.1, §9.4a, §4.4.1), registered with the runner.

These used to live inline in the benchmark suite; registering them alongside
the figures gives them the same CLI, caching and parallel fan-out, and keeps
``benchmarks/`` a thin layer of assertions over shared experiment code.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.coder import SliceCoder
from ..core.transforms import build_transform_chain
from ..overlay.address import assign_overlay_addresses, generate_as_database
from ..overlay.network import NodeResources, uniform_network
from ..overlay.node import SimulatedOverlayNetwork
from ..overlay.runtime import SlicingProtocolRuntime
from ..overlay.selection import (
    adversary_capture_probability,
    as_diverse_selection,
    uniform_selection,
)
from .registry import Experiment, register
from .trials import chunked_points, merge_chunks, spawn_seed


# -- §9.4a: per-hop anti-pattern transform overhead ------------------------------


def _transforms_trials(scale: float) -> list[dict]:
    iterations = max(int(100 * scale), 10)
    return [{"d": d, "iterations": iterations} for d in (2, 3, 5)]


def _transforms_run(params: dict, rng: np.random.Generator) -> dict:
    d = params["d"]
    iterations = params["iterations"]
    packet = bytes(rng.integers(0, 256, 1500, dtype=np.uint8).tobytes())
    coder = SliceCoder(d)
    blocks = coder.encode(packet, rng)
    combined, inverses = build_transform_chain(4, rng)

    start = time.perf_counter()
    for _ in range(iterations):
        coder.encode(packet, rng)
    encode_us = (time.perf_counter() - start) / iterations * 1e6

    start = time.perf_counter()
    for _ in range(iterations):
        for block in blocks:
            transformed = combined.apply_block(block)
            for inverse in inverses:
                transformed = inverse.apply_block(transformed)
    transform_us = (time.perf_counter() - start) / iterations * 1e6

    return {
        "d": d,
        "encode_us": encode_us,
        "transform_chain_us": transform_us,
        "overhead_ratio": transform_us / max(encode_us, 1e-9),
    }


register(
    Experiment(
        name="ablation_transforms",
        title="Ablation §9.4a: per-hop anti-pattern transform CPU overhead",
        build_trials=_transforms_trials,
        run_trial=_transforms_run,
        wall_clock=True,  # timings of this host: never served from cache
    )
)


# -- §9.1: AS-diverse vs. uniform relay selection --------------------------------


def _as_selection_trials(scale: float) -> list[dict]:
    return chunked_points([{}], max(int(60 * scale), 10))


def _as_selection_run(params: dict, rng: np.random.Generator) -> dict:
    database = generate_as_database(num_ases=30, rng=rng)
    addresses = assign_overlay_addresses(database, 400, rng, concentrated_fraction=0.45)
    counts: dict[int, int] = {}
    for prefix in database.prefixes:
        counts[prefix.asn] = counts.get(prefix.asn, 0) + 1
    adversary = {max(counts, key=counts.get)}
    uniform_capture, diverse_capture = [], []
    for _ in range(params["trials"]):
        uniform_capture.append(
            adversary_capture_probability(
                uniform_selection(addresses, 24, rng), adversary, database
            )
        )
        diverse_capture.append(
            adversary_capture_probability(
                as_diverse_selection(addresses, 24, database, rng).relays,
                adversary,
                database,
            )
        )
    return {
        "trials": params["trials"],
        "uniform_capture": float(np.mean(uniform_capture)),
        "diverse_capture": float(np.mean(diverse_capture)),
    }


def _as_selection_reduce(trials: list[dict], results: list[dict]) -> list[dict]:
    merged = merge_chunks(results, (), ("uniform_capture", "diverse_capture"))[0]
    return [
        {"policy": "uniform", "adversary_capture_fraction": merged["uniform_capture"]},
        {"policy": "as-diverse", "adversary_capture_fraction": merged["diverse_capture"]},
    ]


register(
    Experiment(
        name="ablation_as_selection",
        title="Ablation §9.1: AS-diverse vs. uniform relay selection",
        build_trials=_as_selection_trials,
        run_trial=_as_selection_run,
        reduce=_as_selection_reduce,
    )
)


# -- §4.4.1: in-network redundancy regeneration on vs. off -----------------------


def _network_coding_trials(scale: float) -> list[dict]:
    return chunked_points([{}], max(int(60 * scale), 15))


def _regeneration_success_rate(regenerate: bool, trials: int, base_seed: int) -> float:
    source_stage = ["src", "src-b", "src-c"]
    relays = [f"relay-{i}" for i in range(60)]
    network = uniform_network([*source_stage, *relays, "dest"], 0.001, NodeResources())
    successes = 0
    for trial in range(trials):
        substrate = SimulatedOverlayNetwork(network, connection_bps=1e9)
        transfer = SlicingProtocolRuntime(
            substrate,
            source_stage,
            d=2,
            d_prime=3,
            path_length=4,
            rng=np.random.default_rng(base_seed + 1000 + trial),
        )
        transfer.establish(relays, "dest")
        flow = transfer.flow
        for address in flow.graph.relays:
            transfer.runtime.add_relay(address).regenerate_redundancy = regenerate
        substrate.sim.run()
        rng = np.random.default_rng(base_seed + 2000 + trial)
        # Fail one randomly chosen non-destination relay in every stage after
        # setup: survivable iff redundancy keeps getting regenerated.
        for stage in flow.graph.stages[1:]:
            candidates = [node for node in stage if node != "dest"]
            substrate.fail_node(candidates[int(rng.integers(0, len(candidates)))])
        transfer.send_messages([b"payload"])
        substrate.sim.run()
        successes += int(transfer.delivered_plaintexts().get(0) == b"payload")
    return successes / trials


def _network_coding_run(params: dict, rng: np.random.Generator) -> dict:
    # Both arms replay the same overlays, flows and failure patterns (shared
    # derived seeds), so the comparison is paired trial by trial.
    base_seed = spawn_seed(rng)
    trials = params["trials"]
    return {
        "trials": trials,
        "enabled_success": _regeneration_success_rate(True, trials, base_seed),
        "disabled_success": _regeneration_success_rate(False, trials, base_seed),
    }


def _network_coding_reduce(trials: list[dict], results: list[dict]) -> list[dict]:
    merged = merge_chunks(results, (), ("enabled_success", "disabled_success"))[0]
    return [
        {"regeneration": "enabled", "success_rate": merged["enabled_success"]},
        {"regeneration": "disabled", "success_rate": merged["disabled_success"]},
    ]


register(
    Experiment(
        name="ablation_network_coding",
        title="Ablation §4.4.1: in-network redundancy regeneration on vs. off",
        build_trials=_network_coding_trials,
        run_trial=_network_coding_run,
        reduce=_network_coding_reduce,
    )
)
