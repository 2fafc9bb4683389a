"""Onion routing with erasure codes over multiple circuits (§8.1).

The strongest churn-resilient variant of onion routing the paper can think
of: the sender builds ``d'`` node-disjoint onion circuits to the destination
and sends one erasure-coded share of every message down each.  The transfer
survives as long as at least ``d`` circuits stay fully alive — but unlike
information slicing there is no way to regenerate redundancy inside the
network, which is exactly the gap Figs. 16 and 17 quantify.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ProtocolError
from .erasure import ErasureCoder, ErasureShare
from .onion import OnionCircuit, OnionDirectory, OnionRelay, OnionSource


@dataclass
class MultiPathCircuits:
    """``d'`` node-disjoint circuits plus the erasure coder that feeds them."""

    circuits: list[OnionCircuit]
    setup_onions: list[bytes]
    coder: ErasureCoder

    @property
    def d_prime(self) -> int:
        return len(self.circuits)


class OnionErasureSource(OnionSource):
    """An onion source that stripes erasure-coded shares over disjoint circuits."""

    def build_multipath(
        self,
        relays: list[str],
        destination: str,
        path_length: int,
        d: int,
        d_prime: int,
    ) -> MultiPathCircuits:
        """Build ``d'`` circuits with disjoint relay sets."""
        if d_prime < d:
            raise ProtocolError(f"d' ({d_prime}) must be >= d ({d})")
        available = [address for address in relays if address != destination]
        if len(available) < d_prime * path_length:
            raise ProtocolError(
                f"need {d_prime * path_length} distinct relays for "
                f"{d_prime} disjoint circuits of length {path_length}"
            )
        shuffled = list(self.rng.permutation(available))
        circuits: list[OnionCircuit] = []
        onions: list[bytes] = []
        for index in range(d_prime):
            pool = [
                str(a)
                for a in shuffled[index * path_length : (index + 1) * path_length]
            ]
            circuit, onion = self.build_circuit(pool, destination, path_length)
            circuits.append(circuit)
            onions.append(onion)
        return MultiPathCircuits(
            circuits=circuits, setup_onions=onions, coder=ErasureCoder(d, d_prime)
        )

    def encode_message(
        self, multipath: MultiPathCircuits, message: bytes
    ) -> list[bytes]:
        """One wrapped data cell per circuit, carrying one erasure share each."""
        shares = multipath.coder.encode(message, self.rng)
        return [
            self.wrap_data(circuit, share.to_bytes())
            for circuit, share in zip(multipath.circuits, shares)
        ]


def run_multipath_transfer(
    directory: OnionDirectory,
    source: OnionErasureSource,
    multipath: MultiPathCircuits,
    messages: list[bytes],
    failed_relays: set[str] | None = None,
) -> list[bytes | None]:
    """Push messages through the multipath circuits, dropping failed relays.

    Returns the reconstructed plaintexts (``None`` where reconstruction was
    impossible because fewer than ``d`` circuits survived).  Only the
    baseline tests call it; the overlay figures run
    :class:`~repro.baselines.runtime.OnionErasureProtocolRuntime`.
    """
    failed_relays = failed_relays or set()
    relay_engines = {
        address: OnionRelay(address, directory.key_pair(address))
        for address in directory.addresses()
    }
    # Establish every circuit that does not traverse a failed relay.
    live_handles: dict[int, list[int]] = {}
    for index, (circuit, onion) in enumerate(
        zip(multipath.circuits, multipath.setup_onions)
    ):
        if any(hop in failed_relays for hop in circuit.hops):
            continue
        handles = []
        current = onion
        for hop in circuit.hops:
            handle, _next_hop, current = relay_engines[hop].handle_setup(current)
            handles.append(handle)
        live_handles[index] = handles

    results: list[bytes | None] = []
    for message in messages:
        cells = source.encode_message(multipath, message)
        shares: list[ErasureShare] = []
        for index, handles in live_handles.items():
            circuit = multipath.circuits[index]
            cell = cells[index]
            for hop, handle in zip(circuit.hops, handles):
                _next_hop, cell = relay_engines[hop].handle_data(handle, cell)
            shares.append(ErasureShare.from_bytes(cell, d=multipath.coder.d))
        if multipath.coder.can_decode(shares):
            results.append(multipath.coder.decode(shares))
        else:
            results.append(None)
    return results
