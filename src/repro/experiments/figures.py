"""Per-figure experiment definitions, registered with the experiment runner.

Every figure of the paper's evaluation is declared as a named
:class:`~repro.experiments.registry.Experiment`: a trial builder that expands
``scale`` into independent trial dictionaries, a module-level ``run_trial``
function (module-level so worker processes can pickle references to it), and
a reduction that folds per-trial results into the row dictionaries the paper
plots.  No figure samples: the anonymity figures (7-10) are exact DPs and
the resilience figures (16-17) closed forms, one trial per point, so their
rows ignore ``scale`` and the seed.  The overlay figures (11-15) measure
simulated transfers, and ``scale`` sizes those transfers.

Run one by name through :func:`~repro.experiments.runner.run_experiment`
(or :func:`~repro.experiments.runner.experiment_rows` for just the rows).
"""

from __future__ import annotations

import time

import numpy as np

from ..anonymity.analysis import exact_anonymity
from ..baselines.chaum import exact_chaum_anonymity
from ..core.coder import SliceCoder
from ..overlay.churn import PLANETLAB_CHURN
from ..overlay.profiles import PLANETLAB_PROFILE, get_profile
from ..resilience.analysis import (
    onion_erasure_success_probability,
    slicing_success_probability,
    standard_onion_success_probability,
)
from .registry import Experiment, register
from .setup_latency import measure_setup
from .throughput import aggregate_throughput_vs_flows, measure_throughput
from .trials import spawn_seed

#: Default parameters straight from the paper's captions.
DEFAULT_N = 10_000


def _added_redundancy(d: int, d_prime: int) -> float:
    """The §4.4 added redundancy ``(d' - d) / d``, the x axis of Figs. 10, 16 and 17."""
    return (d_prime - d) / d


# -- Figs. 7-10: exact anonymity -------------------------------------------------
#
# One trial per plotted point, computed exactly (no RNG), so the rows do not
# depend on ``scale``, the seed or the worker count.

_FIG07_FRACTIONS = [0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]


def _fig07_trials(scale: float) -> list[dict]:
    return [{"fraction_malicious": f} for f in _FIG07_FRACTIONS]


def _fig07_run(params: dict, rng: np.random.Generator) -> dict:
    fraction = params["fraction_malicious"]
    slicing = exact_anonymity(DEFAULT_N, path_length=8, d=3, fraction_malicious=fraction)
    chaum = exact_chaum_anonymity(DEFAULT_N, path_length=8, fraction_malicious=fraction)
    return {
        "fraction_malicious": fraction,
        "source_anonymity": slicing.source_anonymity,
        "destination_anonymity": slicing.destination_anonymity,
        "chaum_source_anonymity": chaum.source_anonymity,
        "chaum_destination_anonymity": chaum.destination_anonymity,
    }


register(
    Experiment(
        name="fig07",
        title="Fig. 7: anonymity vs. fraction of malicious nodes (N=10000, L=8, d=3)",
        build_trials=_fig07_trials,
        run_trial=_fig07_run,
    )
)


_FIG08_SPLIT_FACTORS = [2, 3, 4, 6, 8, 10, 12]


def _fig08_trials(scale: float) -> list[dict]:
    return [{"split_factor": d} for d in _FIG08_SPLIT_FACTORS]


def _fig08_run(params: dict, rng: np.random.Generator) -> dict:
    row = {"split_factor": params["split_factor"]}
    for fraction in (0.1, 0.4):
        result = exact_anonymity(
            DEFAULT_N, path_length=8, d=params["split_factor"], fraction_malicious=fraction
        )
        row[f"source_anonymity_f{fraction:g}"] = result.source_anonymity
        row[f"destination_anonymity_f{fraction:g}"] = result.destination_anonymity
    return row


register(
    Experiment(
        name="fig08",
        title="Fig. 8: anonymity vs. split factor d (N=10000, L=8, f in {0.1, 0.4})",
        build_trials=_fig08_trials,
        run_trial=_fig08_run,
    )
)


_FIG09_LENGTHS = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]


def _fig09_trials(scale: float) -> list[dict]:
    return [{"path_length": length} for length in _FIG09_LENGTHS]


def _fig09_run(params: dict, rng: np.random.Generator) -> dict:
    result = exact_anonymity(
        DEFAULT_N, path_length=params["path_length"], d=3, fraction_malicious=0.1
    )
    return {
        "path_length": params["path_length"],
        "source_anonymity": result.source_anonymity,
        "destination_anonymity": result.destination_anonymity,
    }


register(
    Experiment(
        name="fig09",
        title="Fig. 9: anonymity vs. path length L (N=10000, d=3, f=0.1)",
        build_trials=_fig09_trials,
        run_trial=_fig09_run,
    )
)


_FIG10_D = 3
_FIG10_D_PRIMES = [3, 4, 5, 6, 7, 8, 9, 10]


def _fig10_trials(scale: float) -> list[dict]:
    return [{"d_prime": d_prime} for d_prime in _FIG10_D_PRIMES]


def _fig10_run(params: dict, rng: np.random.Generator) -> dict:
    d_prime = params["d_prime"]
    result = exact_anonymity(
        DEFAULT_N, path_length=8, d=_FIG10_D, fraction_malicious=0.1, d_prime=d_prime
    )
    return {
        "added_redundancy": _added_redundancy(_FIG10_D, d_prime),
        "source_anonymity": result.source_anonymity,
        "destination_anonymity": result.destination_anonymity,
    }


register(
    Experiment(
        name="fig10",
        title="Fig. 10: anonymity vs. added redundancy (d=3, L=8, f=0.1)",
        build_trials=_fig10_trials,
        run_trial=_fig10_run,
    )
)


# -- Figs. 11 and 12: throughput vs. path length ---------------------------------


def _throughput_trials(profile: str, num_messages: int) -> list[dict]:
    return [
        {"profile": profile, "path_length": length, "d": 2, "num_messages": num_messages}
        for length in (2, 3, 4, 5)
    ]


def _fig11_trials(scale: float) -> list[dict]:
    return _throughput_trials("lan", max(int(300 * scale), 40))


def _fig12_trials(scale: float) -> list[dict]:
    return _throughput_trials("planetlab", max(int(120 * scale), 20))


def _throughput_run(params: dict, rng: np.random.Generator) -> dict:
    profile = get_profile(params["profile"])
    backend = params.get("backend", "sim")
    slicing = measure_throughput(
        "slicing",
        profile,
        params["path_length"],
        d=params["d"],
        num_messages=params["num_messages"],
        seed=spawn_seed(rng),
        backend=backend,
    )
    onion = measure_throughput(
        "onion",
        profile,
        params["path_length"],
        num_messages=params["num_messages"],
        seed=spawn_seed(rng),
        backend=backend,
    )
    return {
        "path_length": params["path_length"],
        "slicing_mbps": slicing.throughput_bps / 1e6,
        "onion_mbps": onion.throughput_bps / 1e6,
        "slicing_delivered": slicing.messages_delivered,
        "onion_delivered": onion.messages_delivered,
        # Structural fields only — what both backends must agree on; the
        # runner mirrors this sub-dict into <name>.parity.json.
        "parity": {
            "path_length": params["path_length"],
            "slicing": slicing.parity_fields(),
            "onion": onion.parity_fields(),
        },
    }


register(
    Experiment(
        name="fig11",
        title="Fig. 11: LAN throughput vs. path length, slicing (d=2) vs. onion routing",
        build_trials=_fig11_trials,
        run_trial=_throughput_run,
        backends=("sim", "aio"),
    )
)

register(
    Experiment(
        name="fig12",
        title="Fig. 12: PlanetLab throughput vs. path length",
        build_trials=_fig12_trials,
        run_trial=_throughput_run,
        backends=("sim", "aio"),
    )
)


# -- Fig. 13: aggregate throughput vs. concurrent flows --------------------------


def _fig13_trials(scale: float) -> list[dict]:
    if scale >= 1.0:
        flow_counts = [1, 2, 4, 8, 16, 32, 64, 96, 128, 160]
    elif scale <= 0.1:
        # Smoke scale: enough points for the curve's rise, cheap enough for
        # CI determinism checks across worker counts.
        flow_counts = [1, 2, 4]
    else:
        flow_counts = [1, 2, 4, 8, 16, 24]
    num_messages = max(int(60 * scale), 10)
    return [
        {"flows": flows, "num_messages": num_messages, "overlay_size": 100,
         "path_length": 5, "d": 3}
        for flows in flow_counts
    ]


def _fig13_run(params: dict, rng: np.random.Generator) -> dict:
    rows = aggregate_throughput_vs_flows(
        PLANETLAB_PROFILE,
        flow_counts=[params["flows"]],
        overlay_size=params["overlay_size"],
        path_length=params["path_length"],
        d=params["d"],
        num_messages=params["num_messages"],
        seed=spawn_seed(rng),
        backend=params.get("backend", "sim"),
    )
    return rows[0]


register(
    Experiment(
        name="fig13",
        title="Fig. 13: aggregate throughput vs. number of concurrent flows",
        build_trials=_fig13_trials,
        run_trial=_fig13_run,
        backends=("sim", "aio"),
    )
)


# -- Figs. 14 and 15: route-setup latency ----------------------------------------


def _setup_trials(profile: str) -> list[dict]:
    return [
        {"profile": profile, "path_length": length, "split_factors": [2, 3, 4]}
        for length in (1, 2, 3, 4, 5, 6)
    ]


def _fig14_trials(scale: float) -> list[dict]:
    return _setup_trials("lan")


def _fig15_trials(scale: float) -> list[dict]:
    return _setup_trials("planetlab")


def _setup_run(params: dict, rng: np.random.Generator) -> dict:
    profile = get_profile(params["profile"])
    backend = params.get("backend", "sim")
    path_length = params["path_length"]
    row = {"path_length": path_length}
    parity = {"path_length": path_length}
    onion = measure_setup("onion", profile, path_length, seed=spawn_seed(rng), backend=backend)
    row["onion_seconds"] = onion.setup_seconds
    parity["onion"] = onion.parity_fields()
    for d in params["split_factors"]:
        result = measure_setup(
            "slicing", profile, path_length, d=d, seed=spawn_seed(rng), backend=backend
        )
        row[f"slicing_d{d}_seconds"] = result.setup_seconds
        parity[f"slicing_d{d}"] = result.parity_fields()
    row["parity"] = parity
    return row


register(
    Experiment(
        name="fig14",
        title="Fig. 14: LAN route-setup latency vs. path length and split factor",
        build_trials=_fig14_trials,
        run_trial=_setup_run,
        backends=("sim", "aio"),
    )
)

register(
    Experiment(
        name="fig15",
        title="Fig. 15: PlanetLab route-setup latency vs. path length and split factor",
        build_trials=_fig15_trials,
        run_trial=_setup_run,
        backends=("sim", "aio"),
    )
)


# -- Fig. 16: analytical resilience ----------------------------------------------

_FIG16_D = 2
_FIG16_D_PRIMES = [2, 3, 4, 5, 6, 7, 8, 10, 12]


def _fig16_trials(scale: float) -> list[dict]:
    return [
        {"node_failure_prob": p, "d_prime": d_prime, "path_length": 5, "d": _FIG16_D}
        for p in (0.1, 0.3)
        for d_prime in _FIG16_D_PRIMES
    ]


def _fig16_run(params: dict, rng: np.random.Generator) -> dict:
    p = params["node_failure_prob"]
    d = params["d"]
    d_prime = params["d_prime"]
    path_length = params["path_length"]
    return {
        "node_failure_prob": p,
        "added_redundancy": _added_redundancy(d, d_prime),
        "onion_erasure_success": onion_erasure_success_probability(
            p, path_length, d, d_prime
        ),
        "information_slicing_success": slicing_success_probability(
            p, path_length, d, d_prime
        ),
    }


register(
    Experiment(
        name="fig16",
        title="Fig. 16: analytical success probability vs. redundancy (p=0.1 and 0.3)",
        build_trials=_fig16_trials,
        run_trial=_fig16_run,
    )
)


# -- Fig. 17: churn resilience ---------------------------------------------------
#
# Each relay dies within the 30-minute session independently, with the churn
# model's probability q, and each scheme's success depends only on which
# relays die.  So every column is a closed form at p = q (fig. 16's two plus
# plain onion routing): one trial per d', no RNG, the same rows at any
# ``scale``, seed or worker count.

_FIG17_D = 2
_FIG17_D_PRIMES = [2, 3, 4, 5, 6]


def _fig17_trials(scale: float) -> list[dict]:
    return [{"d_prime": d_prime} for d_prime in _FIG17_D_PRIMES]


def _fig17_run(params: dict, rng: np.random.Generator) -> dict:
    q = PLANETLAB_CHURN.failure_probability(30 * 60.0)
    d_prime = params["d_prime"]
    return {
        "added_redundancy": _added_redundancy(_FIG17_D, d_prime),
        "information_slicing_success": slicing_success_probability(q, 5, _FIG17_D, d_prime),
        "onion_erasure_success": onion_erasure_success_probability(q, 5, _FIG17_D, d_prime),
        "standard_onion_success": standard_onion_success_probability(q, 5),
    }


register(
    Experiment(
        name="fig17",
        title="Fig. 17: 30-minute transfer success vs. redundancy on a churning overlay",
        build_trials=_fig17_trials,
        run_trial=_fig17_run,
    )
)


# -- §7.1 microbenchmark ----------------------------------------------------------
#
# Its rows time code on this host, so it is never served from cache
# (wall_clock=True).


def _microbench_trials(scale: float) -> list[dict]:
    iterations = max(int(50 * scale), 10)
    return [{"d": d, "iterations": iterations} for d in (2, 3, 4, 5, 6, 8)]


def _microbench_run(params: dict, rng: np.random.Generator) -> dict:
    d = params["d"]
    iterations = params["iterations"]
    coder = SliceCoder(d)
    packet = bytes(rng.integers(0, 256, size=1500, dtype=np.uint8).tobytes())

    start = time.perf_counter()
    for _ in range(iterations):
        blocks = coder.encode(packet, rng)
    encode_seconds = (time.perf_counter() - start) / iterations

    start = time.perf_counter()
    for _ in range(iterations):
        coder.decode(blocks)
    decode_seconds = (time.perf_counter() - start) / iterations

    return {
        "d": d,
        "encode_us_per_packet": encode_seconds * 1e6,
        "decode_us_per_packet": decode_seconds * 1e6,
        "max_output_mbps": 1500 * 8 / max(encode_seconds, 1e-12) / 1e6,
    }


register(
    Experiment(
        name="microbench",
        title="§7.1 microbenchmark: coding cost per 1500-byte packet across d",
        build_trials=_microbench_trials,
        run_trial=_microbench_run,
        wall_clock=True,
    )
)
