"""Span wrappers around each layer's public callables, for the traced run only.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces the
attributes named in :data:`SPAN_TABLE` with wrappers that record one span
per call — (name, start, end, parent, round id) — and puts the originals
back on :meth:`Tracer.uninstall`.  Spans stay in memory until the run ends
and are then written as JSON lines.

A layer's *self time* is the duration of its spans minus the part of that
interval their child spans cover; what no layer span covers belongs to the
``driver`` spans the workloads open around each round and phase (the
calibration kernel of ``hostspeed.py`` runs in ``host`` spans, which are
left out of every total).  The
runtimes' private callback glue (``SlicingRuntime._handle_batch``,
``_CircuitDriver._forward_cells``) runs inside ``EventSimulator.run`` and
has no public name to wrap, so it is counted as ``overlay.simulator`` self
time (``overlay.aio`` on the socket backend, inside ``drive``).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterator

#: Layers in report order: the repo's modules.
LAYERS = (
    "crypto.symmetric",
    "crypto.public_key",
    "core.gf",
    "core.coder",
    "core.source",
    "core.relay",
    "core.flow_decoder",
    "core.packet",
    "overlay.simulator",
    "overlay.node",
    "overlay.aio",
    "baselines.onion",
    "baselines.sphinx",
    "baselines.runtime",
)

#: layer, module, class, wrapped attributes.
SPAN_TABLE: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("crypto.symmetric", "repro.crypto.symmetric", "StreamCipher",
     ("encrypt", "decrypt", "keystream")),
    ("crypto.public_key", "repro.crypto.public_key", "SimulatedKeyPair",
     ("encrypt", "decrypt")),
    ("core.gf", "repro.core.gf", "GF256",
     ("multiply", "matmul", "batched_matmul", "try_invert_matrices", "invert_matrix",
      "invert_matrices", "rank", "solve")),
    ("core.coder", "repro.core.coder", "SliceCoder",
     ("encode", "encode_batch", "decode", "decode_batch", "generate_matrix",
      "generate_matrices", "recombine", "regenerate", "select_independent")),
    ("core.source", "repro.core.source", "Source",
     ("establish_flow", "make_data_packets_batch")),
    ("core.relay", "repro.core.relay", "Relay",
     ("handle_packets", "flush_setup", "flush_data", "flush_data_many", "retire_data",
      "garbage_collect")),
    ("core.flow_decoder", "repro.core.flow_decoder", "FlowDecoder",
     ("add", "add_run", "decode_many")),
    ("core.packet", "repro.core.packet", "Packet", ("to_bytes", "from_bytes")),
    ("overlay.simulator", "repro.overlay.simulator", "EventSimulator",
     ("run", "schedule", "schedule_keyed")),
    ("overlay.node", "repro.overlay.node", "OverlayTransport",
     ("reserve_cpu", "reserve_cpu_sequence")),
    ("overlay.node", "repro.overlay.node", "SimulatedOverlayNetwork",
     ("transmit_packets", "transmit_blobs", "transmit_blob")),
    ("overlay.node", "repro.overlay.node", "SlicingRuntime",
     ("start_flow", "send_messages")),
    ("overlay.aio", "repro.overlay.aio", "AioOverlayNetwork",
     ("drive", "transmit_packets", "transmit_blobs", "transmit_blob", "close")),
    ("baselines.onion", "repro.baselines.onion", "OnionSource",
     ("build_circuit", "wrap_data")),
    ("baselines.onion", "repro.baselines.onion", "OnionRelay",
     ("handle_setup", "handle_data")),
    ("baselines.sphinx", "repro.baselines.sphinx", "SphinxSource",
     ("build_circuit", "wrap_cells", "open_delivered")),
    ("baselines.sphinx", "repro.baselines.sphinx", "SphinxRelay",
     ("handle_setup", "strip_cells")),
    ("baselines.runtime", "repro.baselines.runtime", "OnionProtocolRuntime",
     ("establish", "send_messages")),
    ("baselines.runtime", "repro.baselines.runtime", "SphinxProtocolRuntime",
     ("establish", "send_messages")),
)

#: Work a span did, counted at the layer boundary: spans whose parent is in
#: the same layer are skipped, so ``encrypt`` calling ``keystream`` counts
#: its bytes once.  Signatures mirror the wrapped callables.
SPAN_WORK: dict[str, Callable[..., int]] = {
    "crypto.symmetric/StreamCipher.encrypt": lambda self, plaintext, nonce: len(plaintext),
    "crypto.symmetric/StreamCipher.decrypt": lambda self, plaintext, nonce: len(plaintext),
    "crypto.symmetric/StreamCipher.keystream": lambda self, nonce, length: length,
}


def resolve(module: str, owner: str, attribute: str):
    """The class owning a span-table entry and the raw attribute it defines."""
    cls = getattr(importlib.import_module(module), owner)
    return cls, vars(cls)[attribute]


def layer_of(span_name: str) -> str:
    return span_name.partition("/")[0]


class Tracer:
    """Records spans; one instance per traced run, used from one thread."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, round id, work)
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        self.round_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple[type, str, object]] = []

    # -- installing the wrappers ---------------------------------------------------

    def install(self) -> None:
        for layer, module, owner, attributes in SPAN_TABLE:
            for attribute in attributes:
                cls, raw = resolve(module, owner, attribute)
                name = f"{layer}/{owner}.{attribute}"
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._originals.append((cls, attribute, raw))
                setattr(cls, attribute, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            cls, attribute, raw = self._originals.pop()
            setattr(cls, attribute, raw)

    def _wrap(self, name: str, function: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        work = SPAN_WORK.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot: parents precede their children
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                done = work(*args, **kwargs) if work is not None else 0
                spans[index] = (name, start, end, parent, self.round_id, done)

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A driver-side span (round, establish, burst) around layer calls."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.round_id, 0)

    # -- reading the spans ---------------------------------------------------------

    def summary(self, round_scale: dict[int, float]) -> dict[str, dict[str, float]]:
        """Per layer (``driver`` and ``host`` too): self seconds, span count, boundary work.

        ``round_scale`` turns the raw seconds of each round's spans into
        calibrated ones (see ``hostspeed.py``); only ``host`` spans, from
        timer ticks between rounds, can lie outside every round.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for _name, start, end, parent, _round, _work in spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {layer: {"self_s": 0.0, "calls": 0, "work": 0}
                  for layer in (*LAYERS, "driver", "host")}
        for index, (name, start, end, parent, round_id, work) in enumerate(spans):
            layer = layer_of(name)
            entry = totals[layer]
            entry["self_s"] += ((end - start) - covered[index]) * round_scale.get(round_id, 1.0)
            entry["calls"] += 1
            if work and (parent < 0 or layer_of(spans[parent][0]) != layer):
                entry["work"] += work
        return totals

    def write_jsonl(self, path) -> None:
        """One span per line; times are seconds since the first span started."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, round_id, work) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent,
                    "round": round_id,
                }
                if work:
                    record["work"] = work
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
