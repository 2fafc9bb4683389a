"""Declarative scenario matrices: axis grids that expand into experiments.

The paper evaluates information slicing against the onion baselines on a
handful of fixed ``(d, d', L)`` points over two testbed profiles.  The
runner's worker pool and the batched engines make much wider sweeps
cheap; this module is the declarative layer that exploits them.

A **matrix spec** is a plain dictionary (typically loaded from a JSON file;
YAML works too when PyYAML is installed) naming a grid of *axes*:

=====================  =========================================================
axis                   what the knob maps to
=====================  =========================================================
``loss``               node-failure probability ``p`` fed to the §8 closed
                       forms (Eqs. 6/7) — each scheme's delivery success per
                       cell
``jitter``             log-normal shape parameter of pairwise one-way
                       latencies, added on top of the base profile's
                       ``latency_sigma`` (0 keeps latencies uniform)
``cpu_heterogeneity``  scale of the heavy-tailed (Pareto) per-node CPU load
                       spread; 0 gives every node the base profile's load
                       factor
``adversary``          fraction of colluding malicious overlay nodes in the
                       exact §6 anonymity analysis
``d``                  split factor
``d_prime``            per-stage redundancy (must be >= every ``d``)
``path_length``        forwarding-graph stages ``L``
=====================  =========================================================

:func:`expand_matrix` takes the cartesian product of the axes (in sorted
axis order, so expansion is independent of spec key order) and yields one
:class:`ScenarioCell` per combination; :func:`register_matrix` turns each
cell into a registered :class:`~repro.experiments.registry.Experiment`
whose trials — one per scheme — run through the ordinary runner, including
its ``--workers N`` pool.  Every cell gets a unique,
deterministic name and base seed derived from the matrix name and its axis
values, so artifacts never collide and re-running a spec is bit-identical.

Cells live only in the registry of the process that registered them: the
runner ships each pool worker the cell's trial function
(:func:`run_cell_trial`) with its parameters, so workers never look a cell
up by name, under any multiprocessing start method.

:mod:`repro.experiments.report` merges the per-cell artifacts into the
consolidated cross-scheme report.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..anonymity.analysis import exact_anonymity
from ..baselines.chaum import exact_chaum_anonymity
from ..overlay.network import NetworkModel, NodeResources
from ..overlay.profiles import get_profile
from ..resilience.analysis import (
    onion_erasure_success_probability,
    slicing_success_probability,
    standard_onion_success_probability,
)
from .registry import REGISTRY, Experiment, register
from .trials import spawn_seed


class ScenarioSpecError(ValueError):
    """A scenario-matrix spec is malformed (reported as a one-line CLI error)."""


#: Prefix of every generated cell experiment name.
CELL_PREFIX = "scn"

#: Axis name -> default grid used when the spec omits the axis.
AXIS_DEFAULTS: dict[str, list[float]] = {
    "loss": [0.0],
    "jitter": [0.0],
    "cpu_heterogeneity": [0.0],
    "adversary": [0.1],
    "d": [2],
    "d_prime": [3],
    "path_length": [5],
}

#: Axes whose values must be integers (grid parameters of the coding layer).
INTEGER_AXES = ("d", "d_prime", "path_length")

_BASE_DEFAULTS = {
    "profile": "lan",
    "messages": 120,
    "num_nodes": 2000,
}


@dataclass(frozen=True)
class ScenarioMatrix:
    """A validated matrix spec: axes, schemes and per-cell workload sizing."""

    name: str
    axes: dict[str, list[float]]
    #: Axis names the spec listed explicitly (sorted).  Cell names and seeds
    #: are derived from these alone: defaults do not vary across the matrix,
    #: so the listed axes already identify every cell uniquely, and names
    #: stay short enough to read in report tables.
    listed_axes: tuple[str, ...]
    schemes: tuple[str, ...]
    profile: str
    messages: int
    num_nodes: int

    def cell_count(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count


@dataclass(frozen=True)
class ScenarioCell:
    """One point of the matrix: a full axis assignment plus identity."""

    name: str
    matrix: str
    axes: dict[str, float]
    seed: int


def format_axis_value(value: float) -> str:
    """Compact, deterministic rendering of an axis value for cell names.

    >>> format_axis_value(0.1)
    '0.1'
    >>> format_axis_value(4)
    '4'
    >>> format_axis_value(0.050)
    '0.05'
    """
    return f"{value:g}"


def cell_name(matrix_name: str, axes: dict[str, float]) -> str:
    """Deterministic experiment name for one axis assignment.

    Axes appear in sorted order, so the name is independent of dict order:

    >>> cell_name("smoke", {"loss": 0.1, "adversary": 0.4})
    'scn-smoke-adversary0.4-loss0.1'
    """
    parts = [
        f"{axis}{format_axis_value(axes[axis])}".replace("_", "") for axis in sorted(axes)
    ]
    return "-".join([CELL_PREFIX, matrix_name, *parts])


def label_axes(cell_axes: dict[str, float], listed: tuple[str, ...]) -> dict[str, float]:
    """The subset of a cell's assignment that identifies it within its matrix.

    >>> label_axes({"loss": 0.1, "adversary": 0.1, "d": 2}, ("loss",))
    {'loss': 0.1}
    """
    return {axis: cell_axes[axis] for axis in listed}


def cell_seed(matrix_name: str, axes: dict[str, float]) -> int:
    """Unique, deterministic base seed for one cell.

    Derived from a SHA-256 over the matrix name and the sorted axis
    assignment, so distinct cells get distinct seeds and re-running a spec
    (from any process, in any order) derives the same seed:

    >>> cell_seed("smoke", {"loss": 0.1}) == cell_seed("smoke", {"loss": 0.1})
    True
    >>> cell_seed("smoke", {"loss": 0.1}) == cell_seed("smoke", {"loss": 0.2})
    False
    """
    digest = hashlib.sha256(cell_name(matrix_name, axes).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)


# -- spec parsing ------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioSpecError(message)


def parse_matrix(spec: dict) -> ScenarioMatrix:
    """Validate a raw spec dictionary into a :class:`ScenarioMatrix`.

    Unknown axes, empty grids, out-of-range values, ``d' < d`` combinations
    and unknown schemes are all rejected with one-line
    :class:`ScenarioSpecError` messages (surfaced by the CLI as
    ``error: ...`` with exit code 2).

    >>> matrix = parse_matrix({"name": "demo", "axes": {"loss": [0.0, 0.1]}})
    >>> matrix.cell_count()
    2
    >>> parse_matrix({"axes": {}})
    Traceback (most recent call last):
        ...
    repro.experiments.scenarios.ScenarioSpecError: matrix spec needs a "name"
    """
    _require(isinstance(spec, dict), "matrix spec must be a JSON object")
    name = spec.get("name")
    _require(isinstance(name, str) and name != "", 'matrix spec needs a "name"')
    _require(
        all(ch.isalnum() or ch == "-" for ch in name) and not name.startswith("-"),
        f"matrix name {name!r} may only contain letters, digits and dashes",
    )
    unknown_keys = set(spec) - {"name", "axes", "schemes", "base"}
    _require(not unknown_keys, f"unknown spec key(s): {', '.join(sorted(unknown_keys))}")

    raw_axes = spec.get("axes", {})
    _require(isinstance(raw_axes, dict), '"axes" must be an object of axis -> values')
    unknown_axes = set(raw_axes) - set(AXIS_DEFAULTS)
    _require(
        not unknown_axes,
        f"unknown axis(es): {', '.join(sorted(unknown_axes))} "
        f"(known: {', '.join(sorted(AXIS_DEFAULTS))})",
    )
    axes: dict[str, list[float]] = {}
    for axis in sorted(AXIS_DEFAULTS):
        values = raw_axes.get(axis, AXIS_DEFAULTS[axis])
        _require(
            isinstance(values, list) and len(values) > 0,
            f"axis {axis!r} must be a non-empty list of values",
        )
        _require(
            all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values),
            f"axis {axis!r} values must be numbers",
        )
        _require(
            len(set(values)) == len(values), f"axis {axis!r} has duplicate values"
        )
        if axis in INTEGER_AXES:
            _require(
                all(float(v).is_integer() and v >= 1 for v in values),
                f"axis {axis!r} values must be integers >= 1",
            )
            axes[axis] = [int(v) for v in values]
        else:
            axes[axis] = [float(v) for v in values]
    _require(
        all(0.0 <= v < 1.0 for v in axes["loss"]), 'axis "loss" values must be in [0, 1)'
    )
    _require(
        all(0.0 <= v < 1.0 for v in axes["adversary"]),
        'axis "adversary" values must be in [0, 1)',
    )
    for axis in ("jitter", "cpu_heterogeneity"):
        _require(
            all(math.isfinite(v) and v >= 0.0 for v in axes[axis]),
            f'axis "{axis}" values must be finite and >= 0',
        )
    _require(
        min(axes["d_prime"]) >= max(axes["d"]),
        f'every "d_prime" value must be >= every "d" value '
        f"(got d'={min(axes['d_prime'])} < d={max(axes['d'])})",
    )

    # Imported here so spec parsing does not load the overlay stack at
    # module import.
    from .throughput import SCHEMES

    raw_schemes = spec.get("schemes", list(SCHEMES))
    _require(
        isinstance(raw_schemes, list) and len(raw_schemes) > 0,
        '"schemes" must be a non-empty list',
    )
    unknown_schemes = [s for s in raw_schemes if s not in SCHEMES]
    _require(
        not unknown_schemes,
        f"unknown scheme(s): {', '.join(map(str, unknown_schemes))} "
        f"(known: {', '.join(SCHEMES)})",
    )
    _require(
        len(set(raw_schemes)) == len(raw_schemes), '"schemes" has duplicate entries'
    )

    base = dict(_BASE_DEFAULTS)
    raw_base = spec.get("base", {})
    _require(isinstance(raw_base, dict), '"base" must be an object')
    unknown_base = set(raw_base) - set(_BASE_DEFAULTS)
    _require(
        not unknown_base,
        f"unknown base key(s): {', '.join(sorted(unknown_base))} "
        f"(known: {', '.join(sorted(_BASE_DEFAULTS))})",
    )
    base.update(raw_base)
    _require(
        base["profile"] in ("lan", "planetlab"),
        f"base profile must be 'lan' or 'planetlab', got {base['profile']!r}",
    )
    for key in ("messages", "num_nodes"):
        value = base[key]
        _require(
            isinstance(value, int) and not isinstance(value, bool) and value >= 1,
            f"base {key!r} must be an integer >= 1",
        )

    return ScenarioMatrix(
        name=name,
        axes=axes,
        listed_axes=tuple(sorted(raw_axes)),
        schemes=tuple(raw_schemes),
        profile=str(base["profile"]),
        messages=int(base["messages"]),
        num_nodes=int(base["num_nodes"]),
    )


def load_matrix(path: str | Path) -> ScenarioMatrix:
    """Load and validate a matrix spec from a JSON (or YAML) file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioSpecError(f"cannot read matrix spec {path}: {exc}") from exc
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise ScenarioSpecError(
                f"{path} is YAML but PyYAML is not installed; use a JSON spec"
            ) from None
        try:
            spec = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioSpecError(f"invalid YAML in {path}: {exc}") from exc
    else:
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioSpecError(f"invalid JSON in {path}: {exc}") from exc
    return parse_matrix(spec)


# -- expansion ---------------------------------------------------------------------


def expand_matrix(matrix: ScenarioMatrix) -> list[ScenarioCell]:
    """Expand the axis grids into cells (cartesian product, sorted-axis order).

    Expansion is deterministic and order-stable: axes iterate in sorted name
    order and each axis's values in their listed order, so the same spec
    always yields the same cells in the same sequence.

    Names and seeds derive from the axes the spec listed (the ones that can
    actually vary), so they stay readable:

    >>> matrix = parse_matrix(
    ...     {"name": "demo", "axes": {"loss": [0.0, 0.1], "adversary": [0.1, 0.4]}}
    ... )
    >>> [cell.name for cell in expand_matrix(matrix)][:2]
    ['scn-demo-adversary0.1-loss0', 'scn-demo-adversary0.1-loss0.1']
    """
    names = sorted(matrix.axes)
    cells = []
    for combo in itertools.product(*(matrix.axes[axis] for axis in names)):
        axes = dict(zip(names, combo))
        label = label_axes(axes, matrix.listed_axes)
        cells.append(
            ScenarioCell(
                name=cell_name(matrix.name, label),
                matrix=matrix.name,
                axes=axes,
                seed=cell_seed(matrix.name, label),
            )
        )
    return cells


# -- scenario overlay profiles -----------------------------------------------------


@dataclass(frozen=True)
class ScenarioProfile:
    """An :class:`~repro.overlay.profiles.OverlayProfile`-shaped testbed built
    from a cell's axis assignment.

    ``name`` stays the *base* profile's name so the per-connection capacity
    lookup (``connection_bps_for``) keeps its LAN/WAN semantics.  Jitter and
    CPU heterogeneity are controlled purely by the axes — the base profile
    contributes its latency median and cost anchors.
    """

    name: str
    latency_seconds: float
    jitter: float
    resources: NodeResources
    cpu_heterogeneity: float

    def build_network(
        self, addresses: list[str], rng: np.random.Generator | None = None
    ) -> NetworkModel:
        """Instantiate the network model for a concrete set of addresses."""
        rng = np.random.default_rng() if rng is None else rng
        count = len(addresses)
        if self.cpu_heterogeneity > 0.0:
            factors = self.resources.load_factor * (
                1.0 + rng.pareto(2.5, size=count) * self.cpu_heterogeneity
            )
        else:
            factors = np.full(count, self.resources.load_factor)
        resources = {
            address: replace(self.resources, load_factor=float(factor))
            for address, factor in zip(addresses, factors)
        }
        latency: dict[tuple[str, str], float] = {}
        if self.jitter > 0.0:
            for i, a in enumerate(addresses):
                for b in addresses[i + 1 :]:
                    latency[(a, b)] = float(
                        rng.lognormal(np.log(self.latency_seconds), self.jitter)
                    )
        return NetworkModel(
            resources=resources, latency_matrix=latency, default_latency=self.latency_seconds
        )


def build_scenario_profile(params: dict) -> ScenarioProfile:
    """Derive the cell's testbed from its axis assignment (trial-dict form)."""
    base = get_profile(params["profile"])
    return ScenarioProfile(
        name=base.name,
        latency_seconds=base.latency_seconds,
        jitter=base.latency_sigma + float(params["jitter"]),
        resources=base.resources,
        cpu_heterogeneity=float(params["cpu_heterogeneity"]),
    )


# -- cell experiments --------------------------------------------------------------

#: Floor keeping scaled-down cells meaningful (mirrors the figure modules).
MIN_MESSAGES = 8


def _build_cell_trials(
    matrix: ScenarioMatrix, cell: ScenarioCell, scale: float
) -> list[dict]:
    messages = max(int(matrix.messages * scale), MIN_MESSAGES)
    return [
        {
            "cell": cell.name,
            "scheme": scheme,
            "profile": matrix.profile,
            "messages": messages,
            "num_nodes": matrix.num_nodes,
            **cell.axes,
        }
        for scheme in matrix.schemes
    ]


def run_cell_trial(params: dict, rng: np.random.Generator) -> dict:
    """Measure one scheme at one cell: throughput, setup, anonymity, resilience.

    Module-level so worker processes can pickle references to it.  All four
    measurements are virtual-clock or exact quantities, so the row is a pure
    function of ``(params, rng)`` — which is what lets cells cache, fan out
    and byte-compare like any other deterministic experiment.
    """
    # Imported here (not at module top) to keep the spec-parsing half of this
    # module importable without dragging in the whole overlay stack.
    from .distinguishability import hop_size_unlinkability
    from .setup_latency import measure_setup
    from .throughput import measure_throughput

    scheme = params["scheme"]
    d = int(params["d"])
    d_prime = int(params["d_prime"])
    path_length = int(params["path_length"])
    profile = build_scenario_profile(params)

    throughput = measure_throughput(
        scheme,
        profile,
        path_length,
        d=d,
        d_prime=d_prime,
        num_messages=int(params["messages"]),
        seed=spawn_seed(rng),
    )
    setup = measure_setup(
        scheme, profile, path_length, d=d, d_prime=d_prime, seed=spawn_seed(rng)
    )

    adversary = float(params["adversary"])
    num_nodes = int(params["num_nodes"])
    if scheme == "slicing":
        anonymity = exact_anonymity(num_nodes, path_length, d, adversary, d_prime)
    else:
        # The onion-family baselines are single chains to the attacker: the
        # Chaum chain is the matching model (as in Fig. 7).
        anonymity = exact_chaum_anonymity(num_nodes, path_length, adversary)

    loss = float(params["loss"])
    if scheme == "slicing":
        success = slicing_success_probability(loss, path_length, d, d_prime)
    elif scheme == "onion-erasure":
        success = onion_erasure_success_probability(loss, path_length, d, d_prime)
    else:
        success = standard_onion_success_probability(loss, path_length)

    # Seeded last so rows predating the metric keep their values bit-for-bit.
    unlinkability = hop_size_unlinkability(
        scheme,
        profile,
        path_length,
        d=d,
        d_prime=d_prime,
        num_messages=MIN_MESSAGES,
        seed=spawn_seed(rng),
    )["unlinkability"]

    return {
        "cell": params["cell"],
        "scheme": scheme,
        "throughput_mbps": throughput.throughput_bps / 1e6,
        "messages_delivered": throughput.messages_delivered,
        "setup_seconds": setup.setup_seconds,
        "source_anonymity": anonymity.source_anonymity,
        "destination_anonymity": anonymity.destination_anonymity,
        "success_probability": success,
        "unlinkability": unlinkability,
    }


def _cell_title(matrix: ScenarioMatrix, cell: ScenarioCell) -> str:
    shown = label_axes(cell.axes, matrix.listed_axes) or cell.axes
    settings = ", ".join(
        f"{axis}={format_axis_value(shown[axis])}" for axis in sorted(shown)
    )
    return f"Scenario {matrix.name}: {settings}"


def cell_experiment(matrix: ScenarioMatrix, cell: ScenarioCell) -> Experiment:
    """Wrap one cell as a runnable, deterministic experiment."""

    def build_trials(scale: float, _matrix=matrix, _cell=cell) -> list[dict]:
        return _build_cell_trials(_matrix, _cell, scale)

    return Experiment(
        name=cell.name,
        title=_cell_title(matrix, cell),
        build_trials=build_trials,
        run_trial=run_cell_trial,
        base_seed=cell.seed,
    )


# -- registration ------------------------------------------------------------------

#: Matrix name -> digest of the spec that registered it (collision guard).
_REGISTERED_MATRICES: dict[str, str] = {}


def _matrix_digest(matrix: ScenarioMatrix) -> str:
    return hashlib.sha256(
        json.dumps(
            {
                "axes": matrix.axes,
                "listed": list(matrix.listed_axes),
                "schemes": list(matrix.schemes),
                "profile": matrix.profile,
                "messages": matrix.messages,
                "num_nodes": matrix.num_nodes,
            },
            sort_keys=True,
        ).encode("utf-8")
    ).hexdigest()


def register_matrix(matrix: ScenarioMatrix) -> list[Experiment]:
    """Register every cell of ``matrix`` with the experiment registry.

    Registering the same matrix twice is a no-op (one process may load a
    spec more than once); registering a *different* spec under an
    already-registered matrix name is an error — cell artifacts would
    silently mix two grids.
    """
    digest = _matrix_digest(matrix)
    previous = _REGISTERED_MATRICES.get(matrix.name)
    if previous == digest:
        return [REGISTRY[cell.name] for cell in expand_matrix(matrix)]
    if previous is not None:
        raise ScenarioSpecError(
            f"matrix {matrix.name!r} is already registered with a different spec"
        )
    experiments = []
    for cell in expand_matrix(matrix):
        if cell.name in REGISTRY:
            raise ScenarioSpecError(
                f"cell {cell.name!r} collides with an already-registered experiment"
            )
        experiments.append(register(cell_experiment(matrix, cell)))
    _REGISTERED_MATRICES[matrix.name] = digest
    return experiments


def register_matrix_file(path: str | Path) -> ScenarioMatrix:
    """Load, validate and register a spec file."""
    matrix = load_matrix(path)
    register_matrix(matrix)
    return matrix
