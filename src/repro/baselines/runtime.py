"""Baseline protocol runtimes over the overlay substrate.

Onion routing (§2, §7) and its Sphinx-format variant as
:class:`~repro.overlay.runtime.ProtocolRuntime` implementations, so the
throughput and setup-latency experiments (Figs. 11–15) drive information
slicing and onion routing through the *same* driver over the *same*
substrate, rather than each figure keeping a bespoke forwarding loop.

The runtimes use the real baseline engines (:class:`OnionSource` /
:class:`OnionRelay` peel actual layered envelopes), while the simulated CPU
charges mirror the historical cost model exactly: the source pays one
symmetric pass per layer per cell (and one public-key encryption per layer
during setup), every relay pays one symmetric pass per cell (one public-key
decryption plus the daemon handling constant during setup), and each hop is
one connection.  A setup onion is one
:meth:`~repro.overlay.node.SimulatedOverlayNetwork.transmit_blob` per hop; like the
slicing runtime, data bursts ship in
:data:`~repro.overlay.node.DEFAULT_BATCH_CHUNK`-sized ``transmit_blobs``
chunks — one simulator event per chunk, per-packet serialisation accounted
exactly.
"""

from __future__ import annotations

from ..core.errors import ProtocolError
from ..overlay.node import (
    DEFAULT_BATCH_CHUNK,
    DEFAULT_SETUP_PROCESSING_OVERHEAD,
    FlowProgress,
)
from ..overlay.runtime import ProtocolRuntime
from .onion import OnionCircuit, OnionDirectory, OnionRelay, OnionSource
from .sphinx import SphinxDirectory, SphinxRelay, SphinxSource, unpack_cell


class _CircuitDriver:
    """Shared machinery: drive one onion circuit's setup and data cells."""

    def __init__(
        self,
        runtime: "_CircuitRuntime",
        engines: dict[str, OnionRelay],
        circuit: OnionCircuit,
    ) -> None:
        self.runtime = runtime
        self.substrate = runtime.substrate
        self.engines = engines
        self.circuit = circuit
        self.chain = [runtime.source_stage[0], *circuit.hops, circuit.destination]
        self.handles: dict[str, int] = {}
        self.setup_finished_at: float | None = None

    # -- setup ---------------------------------------------------------------------

    def start_setup(self, onion: bytes) -> None:
        self._forward_setup(0, onion)

    def _forward_setup(self, hop_index: int, blob: bytes) -> None:
        chain = self.chain
        sender = chain[hop_index]
        receiver = chain[hop_index + 1]
        network = self.substrate.network
        if hop_index == 0:
            # The source performs one public-key encryption per layer.
            cpu = network.resources(sender).pk_encrypt_time() * self.circuit.length
        else:
            # The forwarding relay already peeled its layer: one public-key
            # decryption plus the daemon's per-setup-packet handling cost.
            resources = network.resources(sender)
            cpu = (
                resources.pk_decrypt_time()
                + DEFAULT_SETUP_PROCESSING_OVERHEAD * resources.load_factor
            )

        def on_delivered(delivered: bytes) -> None:
            sim = self.substrate.sim
            self.runtime.progress.relay_decode_times.setdefault(receiver, sim.now)
            handle, _next_hop, inner = self.engines[receiver].handle_setup(delivered)
            self.handles[receiver] = handle
            if hop_index + 1 == len(chain) - 2:
                # Final relay: pay its peel on its own CPU, then the
                # acknowledgement travels back up the chain.
                peel = self.substrate.reserve_cpu(
                    receiver, network.resources(receiver).pk_decrypt_time()
                )
                ack_latency = sum(
                    network.latency(chain[i + 1], chain[i])
                    for i in range(len(chain) - 2)
                )
                sim.schedule_at(
                    peel + ack_latency, lambda: self._finish_setup(sim.now)
                )
            else:
                self._forward_setup(hop_index + 1, inner)

        self.substrate.transmit_blob(
            sender,
            receiver,
            blob,
            on_delivered,
            sender_cpu_seconds=cpu,
        )

    def _finish_setup(self, now: float) -> None:
        self.setup_finished_at = now

    # -- data ----------------------------------------------------------------------

    def send_cells(self, seqs: list[int], cells: list[bytes]) -> None:
        """Ship wrapped data cells down the circuit in pipelined chunks."""
        chunk = DEFAULT_BATCH_CHUNK
        for start in range(0, len(cells), chunk):
            self._forward_cells(0, seqs[start : start + chunk], cells[start : start + chunk])

    def _forward_cells(self, hop_index: int, seqs: list[int], cells: list[bytes]) -> None:
        chain = self.chain
        sender = chain[hop_index]
        receiver = chain[hop_index + 1]
        resources = self.substrate.network.resources(sender)
        # The source layered every cell once per hop of its circuit; a relay
        # strips one layer (``x * 1`` is ``x`` to the bit).  Each distinct
        # cell length is priced once; a chunk of one length (a bulk transfer's
        # every chunk) takes its list without a lookup per cell.
        layers = self.runtime.path_length if hop_index == 0 else 1
        lengths = set(map(len, cells))
        if len(lengths) == 1:
            cpus = [resources.symmetric_time(len(cells[0])) * layers] * len(cells)
        else:
            price = {length: resources.symmetric_time(length) * layers for length in lengths}
            cpus = [price[len(cell)] for cell in cells]

        def on_delivered(delivered: list[bytes], arrivals: list[float]) -> None:
            if receiver == self.circuit.destination:
                self.runtime._deliver_cells(seqs, delivered)
                return
            handle = self.handles.get(receiver)
            if handle is None:
                return  # circuit never established through this relay
            _next_hop, stripped = self.engines[receiver].strip_cells(handle, delivered)
            self._forward_cells(hop_index + 1, seqs, stripped)

        self.substrate.transmit_blobs(
            sender,
            receiver,
            cells,
            on_delivered,
            sender_cpu_seconds=cpus,
        )


class _CircuitRuntime(ProtocolRuntime):
    """What the circuit schemes share: the driver, sequence numbers, delivery."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delivered: dict[int, bytes] = {}
        self._driver: _CircuitDriver | None = None
        self._source: OnionSource | SphinxSource | None = None
        self._next_seq = 0

    def _start_circuit(
        self, engines: dict, circuit: OnionCircuit, onion: bytes
    ) -> FlowProgress:
        """Inject the circuit's setup onion; returns the progress tracker."""
        self.progress = FlowProgress(setup_injected_at=self.sim.now)
        self._driver = _CircuitDriver(self, engines, circuit)
        self._driver.start_setup(onion)
        return self.progress

    def _take_seqs(self, count: int) -> list[int]:
        """Reject sends before ``establish``; number the burst's messages."""
        self._require_established(self._source)
        seqs = list(range(self._next_seq, self._next_seq + count))
        self._next_seq += count
        return seqs

    def _deliver(self, seq: int, message: bytes, now: float) -> None:
        self.delivered[seq] = message
        progress = self.progress
        progress.delivered_messages[seq] = now
        progress.delivered_bytes += len(message)
        if progress.first_delivery_at is None:
            progress.first_delivery_at = now
        progress.last_delivery_at = now

    def setup_seconds(self) -> float | None:
        """Time until the circuit acknowledged its setup."""
        if self._driver is None or self._driver.setup_finished_at is None:
            return None
        return self._driver.setup_finished_at - self.progress.setup_injected_at

    def delivered_plaintexts(self) -> dict[int, bytes]:
        return dict(self.delivered)


class OnionProtocolRuntime(_CircuitRuntime):
    """Classic onion routing: one circuit of ``path_length`` relays."""

    scheme = "onion"

    def establish(self, relays: list[str], destination: str) -> FlowProgress:
        pool = [address for address in relays if address != destination]
        directory = OnionDirectory.for_relays(pool, self.rng)
        self._source = OnionSource(directory, self.rng)
        circuit, onion = self._source.build_circuit(pool, destination, self.path_length)
        engines = {
            address: OnionRelay(address, directory.key_pair(address))
            for address in directory.addresses()
        }
        return self._start_circuit(engines, circuit, onion)

    def send_messages(self, messages: list[bytes]) -> None:
        seqs = self._take_seqs(len(messages))
        driver = self._driver
        driver.send_cells(seqs, self._source.wrap_cells(driver.circuit, messages))

    def _deliver_cells(self, seqs: list[int], cells: list[bytes]) -> None:
        now = self.sim.now
        for seq, cell in zip(seqs, cells):
            if seq not in self.delivered:
                self._deliver(seq, cell, now)


class SphinxProtocolRuntime(OnionProtocolRuntime):
    """Sphinx-format onion routing: one circuit, constant-size packets.

    Same chain topology and cost structure as the classic onion runtime —
    one circuit of ``path_length`` relays, one public-key-grade operation
    per hop during setup (here the simulated Diffie-Hellman exchange), one
    symmetric pass per relay per cell — but the on-wire artifacts never
    change size: every setup packet is ``PACKET_SIZE`` bytes at every hop
    and every data cell is ``DATA_CELL_SIZE`` bytes at every hop, so packet
    lengths leak neither the hop position nor the message length.  The
    delivered plaintexts are the *unpadded* messages, so delivered bytes
    (and the parity digest) stay goodput-comparable with the other schemes.
    """

    scheme = "sphinx"

    def establish(self, relays: list[str], destination: str) -> FlowProgress:
        pool = [address for address in relays if address != destination]
        directory = SphinxDirectory.for_relays(pool, self.rng)
        self._source = SphinxSource(directory, self.rng)
        circuit, packet = self._source.build_circuit(
            pool, destination, self.path_length
        )
        engines = {
            address: SphinxRelay(address, directory.node(address))
            for address in directory.addresses()
        }
        return self._start_circuit(engines, circuit, packet)

    # The onion body, bound under this class's own name as well, because the
    # tracer in perfbench/spans.py wraps ``send_messages`` on each runtime.
    send_messages = OnionProtocolRuntime.send_messages

    def _deliver_cells(self, seqs: list[int], cells: list[bytes]) -> None:
        now = self.sim.now
        for seq, cell in zip(seqs, cells):
            if seq in self.delivered:
                continue
            try:
                message = unpack_cell(cell)
            except ProtocolError:
                continue  # a cell that crossed a never-established circuit
            self._deliver(seq, message, now)

