"""Onion-routing baseline (§2, §7).

The comparison protocol used throughout the paper's evaluation: the sender
wraps the route in layers of public-key encryption (one per relay), each
relay peels a layer to learn its next hop and a symmetric session key, and
data cells are wrapped in the session keys so each relay strips exactly one
symmetric layer.

Built on the same substrates as information slicing — the keystream cipher
and the simulated public-key envelopes of :mod:`repro.crypto` — so the two
protocols can be compared over the same simulated overlay with the same CPU
cost model.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import ProtocolError
from ..crypto.keys import generate_key
from ..crypto.public_key import SimulatedKeyPair
from ..crypto.symmetric import StreamCipher

_TERMINATOR = "__exit__"
_NONCE = b"\x00" * 8


@dataclass
class OnionDirectory:
    """The trusted directory of relay public keys onion routing requires.

    Information slicing's headline claim is that it needs no such directory;
    the baseline gets one for free so the comparison is as favourable to
    onion routing as possible.
    """

    key_pairs: dict[str, SimulatedKeyPair] = field(default_factory=dict)

    @classmethod
    def for_relays(
        cls, addresses: list[str], rng: np.random.Generator
    ) -> "OnionDirectory":
        return cls(
            key_pairs={
                address: SimulatedKeyPair.generate(address, rng)
                for address in addresses
            }
        )

    def key_pair(self, address: str) -> SimulatedKeyPair:
        try:
            return self.key_pairs[address]
        except KeyError as exc:
            raise ProtocolError(f"{address} is not in the onion directory") from exc

    def addresses(self) -> list[str]:
        return list(self.key_pairs)


@dataclass
class OnionCircuit:
    """A built circuit: the relay chain and the per-hop session keys."""

    hops: list[str]
    session_keys: list[bytes]
    destination: str

    @property
    def length(self) -> int:
        return len(self.hops)


def _pack_layer(next_hop: str, session_key: bytes, inner: bytes) -> bytes:
    encoded = next_hop.encode("utf-8")
    return (
        struct.pack(">B", len(encoded))
        + encoded
        + struct.pack(">B", len(session_key))
        + session_key
        + inner
    )


def _unpack_layer(data: bytes) -> tuple[str, bytes, bytes]:
    try:
        name_len = data[0]
        next_hop = data[1 : 1 + name_len].decode("utf-8")
        offset = 1 + name_len
        key_len = data[offset]
        session_key = bytes(data[offset + 1 : offset + 1 + key_len])
        inner = bytes(data[offset + 1 + key_len :])
    except (IndexError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed onion layer: {exc}") from exc
    return next_hop, session_key, inner


class OnionSource:
    """Builds circuits and produces the setup onion and data cells."""

    def __init__(self, directory: OnionDirectory, rng: np.random.Generator) -> None:
        self.directory = directory
        self.rng = rng

    def build_circuit(
        self, relays: list[str], destination: str, path_length: int
    ) -> tuple[OnionCircuit, bytes]:
        """Pick ``path_length`` relays and wrap the setup onion around them.

        Returns the circuit (kept by the source) and the onion to hand to the
        first relay.  The destination is the circuit's exit.
        """
        pool = [address for address in relays if address != destination]
        if len(pool) < path_length:
            raise ProtocolError(
                f"need at least {path_length} relays, got {len(pool)}"
            )
        chosen = [str(a) for a in self.rng.choice(pool, size=path_length, replace=False)]
        session_keys = [generate_key(self.rng) for _ in chosen]
        circuit = OnionCircuit(
            hops=chosen, session_keys=session_keys, destination=destination
        )
        # Build the onion inside-out: the innermost layer tells the last relay
        # to deliver to the destination.
        inner = _pack_layer(destination, session_keys[-1], b"")
        onion = self.directory.key_pair(chosen[-1]).encrypt(inner)
        for hop_index in range(path_length - 2, -1, -1):
            layer = _pack_layer(
                chosen[hop_index + 1], session_keys[hop_index], onion
            )
            onion = self.directory.key_pair(chosen[hop_index]).encrypt(layer)
        return circuit, onion

    def wrap_data(self, circuit: OnionCircuit, message: bytes) -> bytes:
        """Layer a data cell so each relay strips exactly one symmetric layer."""
        cell = bytes(message)
        for session_key in reversed(circuit.session_keys):
            cell = StreamCipher(session_key).encrypt(cell, _NONCE)
        return cell

    def public_key_operations(self, circuit: OnionCircuit) -> int:
        """Public-key encryptions performed by the source during setup."""
        return circuit.length


class OnionRelay:
    """One onion-routing relay: peels setup onions and data layers."""

    def __init__(self, address: str, key_pair: SimulatedKeyPair) -> None:
        self.address = address
        self.key_pair = key_pair
        self.sessions: dict[int, tuple[bytes, str]] = {}
        self._next_session = 0

    def handle_setup(self, onion: bytes) -> tuple[int, str, bytes]:
        """Peel one layer: returns (circuit handle, next hop, remaining onion)."""
        layer = self.key_pair.decrypt(onion)
        next_hop, session_key, inner = _unpack_layer(layer)
        handle = self._next_session
        self._next_session += 1
        self.sessions[handle] = (session_key, next_hop)
        return handle, next_hop, inner

    def _session(self, handle: int) -> tuple[bytes, str]:
        try:
            return self.sessions[handle]
        except KeyError as exc:
            raise ProtocolError(f"unknown circuit handle {handle}") from exc

    def handle_data(self, handle: int, cell: bytes) -> tuple[str, bytes]:
        """Strip this relay's symmetric layer from a data cell."""
        session_key, next_hop = self._session(handle)
        return next_hop, StreamCipher(session_key).decrypt(cell, _NONCE)

    def strip_cells(self, handle: int, cells: list[bytes]) -> tuple[str, list[bytes]]:
        """:meth:`handle_data` over a burst of cells (the runtimes' relay surface)."""
        _session_key, next_hop = self._session(handle)
        return next_hop, [self.handle_data(handle, cell)[1] for cell in cells]


def run_circuit(
    directory: OnionDirectory,
    source: OnionSource,
    relays: list[str],
    destination: str,
    path_length: int,
    messages: list[bytes],
) -> tuple[OnionCircuit, list[bytes]]:
    """Functional end-to-end helper: build a circuit and push messages through it.

    Returns the circuit and the plaintexts that reached the destination.  Used
    by tests to confirm the baseline is a faithful onion implementation (each
    relay sees only its predecessor and successor, data is layered).
    """
    relay_engines = {
        address: OnionRelay(address, directory.key_pair(address))
        for address in directory.addresses()
    }
    circuit, onion = source.build_circuit(relays, destination, path_length)
    handles: list[int] = []
    current = onion
    for hop in circuit.hops:
        handle, next_hop, current = relay_engines[hop].handle_setup(current)
        handles.append(handle)
    received: list[bytes] = []
    for message in messages:
        cell = source.wrap_data(circuit, message)
        for hop, handle in zip(circuit.hops, handles):
            next_hop, cell = relay_engines[hop].handle_data(handle, cell)
        received.append(cell)
    return circuit, received
