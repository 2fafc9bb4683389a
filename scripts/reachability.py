#!/usr/bin/env python
"""Reachability census: every function in ``src/repro`` that nothing runs.

Runs the program's product paths under stdlib ``cProfile`` and compares the
functions that were called with every function ``ast`` finds in
``src/repro``.  The product paths are:

* the CLI: ``list``; ``run`` of every registered experiment at
  ``--scale 0.05``, twice into one ``--out`` so the second run is served
  from cache; the overlay figures at ``--scale 0.02 --backend aio``; and one
  bad request;
* one round of each benchmark workload in ``perfbench/workloads.py``;
* every script under ``examples/``.

They run in one process per GF(2^8) provider (``REPRO_GF_KERNEL_PROVIDER``
unset, then ``none``), with the profiler on before ``repro`` is imported; a
function counts as reached if either run calls it.

An unreached function is reported unless the benchmark binds it
(``perfbench/spans.py::SPAN_TABLE``, or a name ``perfbench/`` imports from
``repro``) or :data:`ALLOWLIST` names it with a reason.  The script exits 1
if anything is reported, if an allowlist entry is reached or no longer
exists, or if the test an entry cites does not exist.

Usage:  python scripts/reachability.py
"""

from __future__ import annotations

import ast
import cProfile
import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

#: Why an unreached function stays.  ``fallback`` and ``reference`` entries
#: cite the test that reaches the function or compares product code with it.
FALLBACK = "an error or fallback path; reached by"
RETENTION = "retention: no workload runs a flow past DEFAULT_SEQ_RETENTION"
REFERENCE = "the reference a test compares a product path against:"
INTERFACE = "an interface method or dunder"

_DATAPLANE = "tests/test_dataplane.py::"
_RETENTION_BOUNDARY = _DATAPLANE + "test_batched_plane_matches_scalar_reference_across_the_retention_boundary"
_PER_ROW_STORE = _DATAPLANE + "test_flow_decoder_matches_the_per_row_reference_store"
_SCALAR_WIRE = "tests/test_wire_format.py::test_a_mixed_shape_batch_parses_like_the_scalar_reference"

#: ``module:qualname`` -> (reason, cited test or "").
ALLOWLIST: dict[str, tuple[str, str]] = {
    # The paper's formulas that exact product code is held to.
    "repro.anonymity.analysis:destination_case1_probability": (
        REFERENCE, "tests/test_exact_anonymity.py::test_case1_closed_forms_are_the_dp_marginals"),
    "repro.anonymity.metrics:degree_of_anonymity": (
        REFERENCE, "tests/test_anonymity.py::test_two_level_matches_direct_entropy"),
    "repro.anonymity.metrics:entropy": (
        REFERENCE, "tests/test_anonymity.py::test_two_level_matches_direct_entropy"),
    "repro.anonymity.metrics:max_entropy": (
        REFERENCE, "tests/test_anonymity.py::test_two_level_matches_direct_entropy"),
    "repro.core.matrix:mds_matrix": (
        REFERENCE,
        "tests/test_coder_batch.py::test_redundant_matrices_are_stream_identical_to_mds_matrix"),
    "repro.core.matrix:_scale_rows_cols": (
        REFERENCE,
        "tests/test_coder_batch.py::test_redundant_matrices_are_stream_identical_to_mds_matrix"),
    # Packet.to_bytes / from_bytes, the scalar wire reference, run these.
    "repro.core.coder:CodedBlock.to_bytes": (REFERENCE, _SCALAR_WIRE),
    "repro.core.coder:CodedBlock.from_bytes": (REFERENCE, _SCALAR_WIRE),
    # Error and fallback paths.
    "repro.core.errors:InsufficientSlicesError.__init__": (
        FALLBACK, "tests/test_coder.py::test_fewer_than_d_blocks_raises"),
    "repro.core.integrity:robust_decode": (
        FALLBACK, _DATAPLANE + "test_flow_decoder_mixed_length_slices_fall_back"),
    "repro.core.flow_decoder:FlowDecoder.count": (
        FALLBACK, _DATAPLANE + "test_flush_ignores_a_length_clashing_slice"),
    "repro.core.packet:PacketBatch.of": (
        FALLBACK, _DATAPLANE + "test_batched_plane_bit_identical_to_scalar_reference"),
    "repro.core.gf_kernels:unavailable_reason": (
        FALLBACK, "tests/test_gf_kernels.py::test_provider_disabled_by_env_falls_back_to_numpy"),
    # Sequence-number retention (ROADMAP item 2(d) gives these a workload).
    "repro.core.flow_decoder:FlowDecoder.retire_before": (RETENTION, _RETENTION_BOUNDARY),
    "repro.core.flow_decoder:FlowDecoder._rebase": (RETENTION, _RETENTION_BOUNDARY),
    "repro.core.flow_decoder:_Plane.shift": (RETENTION, _RETENTION_BOUNDARY),
    "repro.core.flow_decoder:shift_mask": (RETENTION, _RETENTION_BOUNDARY),
    "repro.core.relay:FlowState.retire_before": (RETENTION, _RETENTION_BOUNDARY),
    # Interface methods and dunders; the inspection accessors are what the
    # data-plane tests compare the product relay state with the oracle's through.
    "repro.core.flow_decoder:FlowDecoder.__contains__": (INTERFACE, _PER_ROW_STORE),
    "repro.core.flow_decoder:FlowDecoder.__len__": (INTERFACE, _PER_ROW_STORE),
    "repro.core.flow_decoder:FlowDecoder.lanes": (INTERFACE, _PER_ROW_STORE),
    "repro.core.flow_decoder:FlowDecoder.seqs": (INTERFACE, _PER_ROW_STORE),
    "repro.core.flow_decoder:FlowDecoder.markers": (INTERFACE, _RETENTION_BOUNDARY),
    "repro.core.relay:FlowState.markers": (INTERFACE, _RETENTION_BOUNDARY),
    "repro.core.graph:ForwardingGraph.slice_path": (
        INTERFACE, "tests/test_graph.py::test_slice_paths_are_vertex_disjoint"),
    "repro.core.coder:SliceCoder.__repr__": (INTERFACE, ""),
    "repro.core.gf:GF256.__repr__": (INTERFACE, ""),
    "repro.overlay.node:OverlayTransport.__enter__": (INTERFACE, ""),
    "repro.overlay.node:OverlayTransport.__exit__": (INTERFACE, ""),
    "repro.overlay.runtime:ProtocolRuntime.establish": (INTERFACE, ""),
    "repro.overlay.runtime:ProtocolRuntime.send_messages": (INTERFACE, ""),
    "repro.overlay.runtime:ProtocolRuntime.delivered_plaintexts": (INTERFACE, ""),
    "repro.overlay.runtime:ProtocolRuntime.setup_seconds": (INTERFACE, ""),
    # The library call the figure benchmarks under benchmarks/ read rows through.
    "repro.experiments.runner:experiment_rows": (
        INTERFACE, "benchmarks/test_fig16_resilience_analysis.py::test_fig16_resilience_analysis"),
}


def functions() -> dict[tuple[str, int], str]:
    """(file, first line as the profiler reports it) -> ``module:qualname``."""
    found = {}
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(str(path), first)] = f"{module}:{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def perfbench_bound() -> set[str]:
    """Names the benchmark binds: its span table and what it imports from ``repro``."""
    bound = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> repro module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                for alias in node.names:
                    bound.add(f"{node.module}:{alias.name}")
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                bound.add(f"{modules[node.value.id]}:{node.attr}")
    sys.path.insert(0, str(PERFBENCH))
    from spans import SPAN_TABLE

    for _layer, module, owner, attributes in SPAN_TABLE:
        bound.update(f"{module}:{owner}.{attribute}" for attribute in attributes)
    return bound


def collect() -> list[tuple[str, int]]:
    """Run the product paths in this process; returns what the profiler saw."""
    profile = cProfile.Profile()
    profile.enable()
    sys.path[:0] = [str(SOURCE), str(PERFBENCH)]
    from hostspeed import HostSpeed
    from repro.experiments.__main__ import main
    from repro.experiments.registry import experiment_names, get_experiment
    from workloads import WORKLOADS, RoundLog, round_seed

    with tempfile.TemporaryDirectory() as scratch, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        out = str(Path(scratch) / "results")
        names = experiment_names()
        aio = [name for name in names if "aio" in get_experiment(name).backends]
        requests = [
            (["list"], 0),
            (["run", *names, "--scale", "0.05", "--out", out], 0),
            (["run", *names, "--scale", "0.05", "--out", out], 0),
            (["run", *aio, "--scale", "0.02", "--backend", "aio", "--out", out], 0),
            (["run", "fig16", "--scale", "nan", "--out", out], 2),
        ]
        for request, code in requests:
            assert main(request) == code, request
        for workload in WORKLOADS.values():
            log = RoundLog(HostSpeed())
            workload.run_round(log, round_seed(1, 0))
            assert log.failed == 0, workload.name
        for example in sorted((ROOT / "examples").glob("*.py")):
            runpy.run_path(str(example), run_name="__main__")
    profile.disable()
    return [(entry.code.co_filename, entry.code.co_firstlineno)
            for entry in profile.getstats() if not isinstance(entry.code, str)]


def cited_test_exists(test: str) -> bool:
    path, _, name = test.partition("::")
    file = ROOT / path
    return file.is_file() and re.search(
        rf"^\s*def {re.escape(name)}\b", file.read_text(encoding="utf-8"), re.MULTILINE
    ) is not None


def main() -> int:
    reached = set()
    for provider in ("", "none"):
        env = {key: value for key, value in os.environ.items()
               if key != "REPRO_GF_KERNEL_PROVIDER"}
        if provider:
            env["REPRO_GF_KERNEL_PROVIDER"] = provider
        output = subprocess.run(
            [sys.executable, __file__, "--collect"], env=env, check=True,
            stdout=subprocess.PIPE, text=True,
        ).stdout
        reached.update((path, line) for path, line in json.loads(output))
    everything = functions()
    names = set(everything.values())
    unreached = sorted(name for key, name in everything.items() if key not in reached)
    reached_names = names - set(unreached)
    bound = perfbench_bound()

    failures = [f"unreached: {name}" for name in unreached
                if name not in bound and name not in ALLOWLIST]
    for name, (reason, test) in sorted(ALLOWLIST.items()):
        if name not in names:
            failures.append(f"allowlisted but gone: {name}")
        elif name in reached_names:
            failures.append(f"allowlisted but reached: {name}")
        if test and not cited_test_exists(test):
            failures.append(f"allowlisted with a missing test: {name} ({test})")
    print(f"reachability: {len(names)} functions in src/repro, {len(unreached)} unreached; "
          f"{len([n for n in unreached if n in bound])} bound by perfbench, "
          f"{len(ALLOWLIST)} allowlisted")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--collect"]:
        print(json.dumps(collect()))
        raise SystemExit(0)
    raise SystemExit(main())
