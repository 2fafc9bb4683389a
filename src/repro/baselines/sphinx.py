"""Sphinx-format onion baseline (constant-size packets, per-hop blinding).

The classic onion baseline (:mod:`repro.baselines.onion`) nests one
public-key envelope per relay, so the setup packet *shrinks* at every hop —
an observer who sees a packet's length learns the hop position.  The Sphinx
construction (BOLT #4's routing schema) closes that side channel: every
setup packet is exactly :data:`PACKET_SIZE` bytes at every hop, and every
data cell is exactly :data:`DATA_CELL_SIZE` bytes at every hop.

The packet is ``alpha || routing || mac``:

* ``alpha`` — the source's ephemeral Diffie-Hellman element.  Each relay
  derives the shared secret from it and *blinds* it before forwarding, so
  consecutive hops cannot link packets by the element either.
* ``routing`` — :data:`MAX_HOPS` fixed-size hop slots, obfuscated with one
  keystream per hop.  A relay XORs its stream over ``routing`` extended
  with zeros (the shift-and-MAC trick): the first slot pops out in the
  clear with the relay's next hop, session key and the *next* hop's MAC,
  while the tail refills with stream bytes so the region never shrinks.
  The source pre-compensates those accumulated tails with the standard
  Sphinx *filler* so every per-hop MAC verifies.
* ``mac`` — an HMAC over ``routing`` under a key derived from the hop's
  shared secret; tampering with any routing byte fails the check at the
  next relay.

The Diffie-Hellman group is simulated the same way the rest of
:mod:`repro.crypto` simulates cryptography: modular exponentiation in
``Z_p^*`` with ``p = 2**255 - 19``, with each relay's group secret derived
deterministically from its :class:`~repro.crypto.public_key.SimulatedKeyPair`
secret.  The shared-secret schedule, keystreams and MACs are real (SHA-256
key derivation, HMAC-SHA256 tags, the SHAKE256
:class:`~repro.crypto.symmetric.StreamCipher` keystream — whose shorter
reads are prefixes of longer ones, which the relay's unroll relies on), so
the structural properties under test — constant size, per-hop integrity,
blinding determinism — hold exactly as in the production construction.

Data cells mirror the classic baseline's session-key layering (one
size-preserving keystream XOR per relay), but pad every message into a
fixed :data:`DATA_CELL_SIZE` cell first, so payload lengths leak nothing
either.  :meth:`SphinxSource.wrap_cells` / :meth:`SphinxRelay.strip_cells`
layer a whole burst at once (one keystream per circuit, one vectorised XOR
per burst) and are bit-identical to layering one stream cipher pass per hop
per cell, the reference in ``tests/oracles/sphinx.py`` —
``tests/test_sphinx.py::test_batched_cells_bit_identical_to_per_cell_reference``
asserts it.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import ProtocolError
from ..crypto.keys import KEY_SIZE, generate_key
from ..crypto.public_key import SimulatedKeyPair
from ..crypto.symmetric import StreamCipher

#: Simulated Diffie-Hellman group: exponentiation mod a 255-bit prime.
GROUP_PRIME = 2**255 - 19
GROUP_ORDER = GROUP_PRIME - 1
GENERATOR = 5

#: Serialised group-element width (bytes) — the ``alpha`` field.
ALPHA_SIZE = 32
#: HMAC-SHA256 width (bytes).
MAC_SIZE = 32
#: Maximum UTF-8 address length a hop slot can carry.
ADDRESS_SIZE = 31
#: One routing slot: length-prefixed next hop, session key, next hop's MAC.
HOP_SIZE = 1 + ADDRESS_SIZE + KEY_SIZE + MAC_SIZE
#: Longest route a packet can encode; figs 11–15 use at most L=6.
MAX_HOPS = 8
#: The obfuscated routing region: MAX_HOPS slots, always full width.
ROUTING_SIZE = MAX_HOPS * HOP_SIZE
#: On-wire setup-packet size — identical at every hop.
PACKET_SIZE = ALPHA_SIZE + ROUTING_SIZE + MAC_SIZE
#: On-wire data-cell size — identical at every hop for every message.
DATA_CELL_SIZE = 2048

_CELL_HEADER = struct.Struct(">I")
_NONCE = b"\x00" * 8


def _xor(left: bytes, right: bytes) -> bytes:
    return (
        np.frombuffer(left, dtype=np.uint8) ^ np.frombuffer(right, dtype=np.uint8)
    ).tobytes()


def _element_bytes(element: int) -> bytes:
    return element.to_bytes(ALPHA_SIZE, "big")


def _derive_key(tag: bytes, shared_secret: bytes) -> bytes:
    return hmac.new(tag, shared_secret, hashlib.sha256).digest()


def _stream(tag: bytes, shared_secret: bytes, length: int) -> bytes:
    return StreamCipher(_derive_key(tag, shared_secret)).keystream(_NONCE, length)


def _mac(shared_secret: bytes, routing: bytes) -> bytes:
    return hmac.new(_derive_key(b"mu", shared_secret), routing, hashlib.sha256).digest()


def _shared_secret(element: int) -> bytes:
    return hashlib.sha256(b"sphinx-ss" + _element_bytes(element)).digest()


def _blinding_factor(alpha: int, shared_secret: bytes) -> int:
    """The per-hop blinding exponent — derivable by source and relay alike."""
    digest = hashlib.sha256(
        b"sphinx-blind" + _element_bytes(alpha) + shared_secret
    ).digest()
    return 1 + int.from_bytes(digest, "big") % (GROUP_ORDER - 1)


def _dh_secret(key_pair: SimulatedKeyPair) -> int:
    """A node's group secret, derived from its simulated key-pair secret."""
    digest = hashlib.sha256(b"sphinx-dh" + key_pair.secret).digest()
    return 1 + int.from_bytes(digest, "big") % (GROUP_ORDER - 1)


def _filler(shared_secrets: list[bytes]) -> bytes:
    """The accumulated keystream tails the final hop's MAC must account for.

    Each intermediate peel extends ``routing`` with ``HOP_SIZE`` stream
    bytes; this pre-computes exactly those bytes so the source can bake
    them into the final hop's routing region.
    """
    filler = b""
    for shared_secret in shared_secrets[:-1]:
        filler += b"\x00" * HOP_SIZE
        stream = _stream(b"rho", shared_secret, ROUTING_SIZE + HOP_SIZE)
        filler = _xor(filler, stream[len(stream) - len(filler):])
    return filler


def _pack_slot(next_hop: str, session_key: bytes, next_mac: bytes) -> bytes:
    encoded = next_hop.encode("utf-8")
    if len(encoded) > ADDRESS_SIZE:
        raise ProtocolError(
            f"sphinx hop address {next_hop!r} exceeds {ADDRESS_SIZE} bytes"
        )
    if len(session_key) != KEY_SIZE:
        raise ProtocolError(f"sphinx session keys must be {KEY_SIZE} bytes")
    return (
        struct.pack(">B", len(encoded))
        + encoded.ljust(ADDRESS_SIZE, b"\x00")
        + session_key
        + next_mac
    )


def _unpack_slot(slot: bytes) -> tuple[str, bytes, bytes]:
    name_length = slot[0]
    if name_length == 0 or name_length > ADDRESS_SIZE:
        raise ProtocolError("malformed sphinx hop slot")
    try:
        next_hop = slot[1 : 1 + name_length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed sphinx hop slot: {exc}") from exc
    offset = 1 + ADDRESS_SIZE
    session_key = bytes(slot[offset : offset + KEY_SIZE])
    next_mac = bytes(slot[offset + KEY_SIZE :])
    return next_hop, session_key, next_mac


@dataclass(frozen=True)
class SphinxPacket:
    """One constant-size setup packet: ``alpha || routing || mac``."""

    alpha: int
    routing: bytes
    mac: bytes

    def to_bytes(self) -> bytes:
        return _element_bytes(self.alpha) + self.routing + self.mac

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SphinxPacket":
        if len(blob) != PACKET_SIZE:
            raise ProtocolError(
                f"sphinx packets are exactly {PACKET_SIZE} bytes, got {len(blob)}"
            )
        return cls(
            alpha=int.from_bytes(blob[:ALPHA_SIZE], "big"),
            routing=bytes(blob[ALPHA_SIZE : ALPHA_SIZE + ROUTING_SIZE]),
            mac=bytes(blob[ALPHA_SIZE + ROUTING_SIZE :]),
        )


@dataclass(frozen=True)
class SphinxNode:
    """One relay's directory entry: its key pair and derived group element."""

    key_pair: SimulatedKeyPair
    dh_secret: int
    dh_public: int

    @classmethod
    def from_key_pair(cls, key_pair: SimulatedKeyPair) -> "SphinxNode":
        secret = _dh_secret(key_pair)
        return cls(
            key_pair=key_pair,
            dh_secret=secret,
            dh_public=pow(GENERATOR, secret, GROUP_PRIME),
        )


@dataclass
class SphinxDirectory:
    """Directory of relay group elements, mirroring :class:`OnionDirectory`."""

    nodes: dict[str, SphinxNode] = field(default_factory=dict)

    @classmethod
    def for_relays(
        cls, addresses: list[str], rng: np.random.Generator
    ) -> "SphinxDirectory":
        return cls(
            nodes={
                address: SphinxNode.from_key_pair(
                    SimulatedKeyPair.generate(address, rng)
                )
                for address in addresses
            }
        )

    def node(self, address: str) -> SphinxNode:
        try:
            return self.nodes[address]
        except KeyError as exc:
            raise ProtocolError(f"{address} is not in the sphinx directory") from exc

    def addresses(self) -> list[str]:
        return list(self.nodes)


@dataclass
class SphinxCircuit:
    """A built circuit: the relay chain and the per-hop session keys."""

    hops: list[str]
    session_keys: list[bytes]
    destination: str

    @property
    def length(self) -> int:
        return len(self.hops)


def pack_cell(message: bytes) -> bytes:
    """Pad a message into one fixed-size data cell (length-prefixed)."""
    if len(message) > DATA_CELL_SIZE - _CELL_HEADER.size:
        raise ProtocolError(
            f"sphinx data cells carry at most {DATA_CELL_SIZE - _CELL_HEADER.size}"
            f" bytes, got {len(message)}"
        )
    body = _CELL_HEADER.pack(len(message)) + bytes(message)
    return body + b"\x00" * (DATA_CELL_SIZE - len(body))


def unpack_cell(cell: bytes) -> bytes:
    """Recover the message from a fully-stripped data cell."""
    if len(cell) != DATA_CELL_SIZE:
        raise ProtocolError(
            f"sphinx data cells are exactly {DATA_CELL_SIZE} bytes, got {len(cell)}"
        )
    (length,) = _CELL_HEADER.unpack_from(cell)
    if length > DATA_CELL_SIZE - _CELL_HEADER.size:
        raise ProtocolError("corrupt sphinx data cell: bad length prefix")
    return bytes(cell[_CELL_HEADER.size : _CELL_HEADER.size + length])


def _cell_mask(session_keys: list[bytes]) -> np.ndarray:
    """The combined per-circuit keystream the source layers onto every cell."""
    mask = np.zeros(DATA_CELL_SIZE, dtype=np.uint8)
    for session_key in session_keys:
        mask ^= np.frombuffer(
            StreamCipher(session_key).keystream(_NONCE, DATA_CELL_SIZE),
            dtype=np.uint8,
        )
    return mask


class SphinxSource:
    """Builds circuits, constant-size setup packets and padded data cells."""

    def __init__(self, directory: SphinxDirectory, rng: np.random.Generator) -> None:
        self.directory = directory
        self.rng = rng

    def build_circuit(
        self, relays: list[str], destination: str, path_length: int
    ) -> tuple[SphinxCircuit, bytes]:
        """Pick ``path_length`` relays and build the Sphinx setup packet.

        Returns the circuit (kept by the source) and the serialised packet to
        hand to the first relay.  The destination is the circuit's exit.
        """
        if path_length > MAX_HOPS:
            raise ProtocolError(
                f"sphinx routes at most {MAX_HOPS} hops, got {path_length}"
            )
        pool = [address for address in relays if address != destination]
        if len(pool) < path_length:
            raise ProtocolError(f"need at least {path_length} relays, got {len(pool)}")
        chosen = [str(a) for a in self.rng.choice(pool, size=path_length, replace=False)]
        session_keys = [generate_key(self.rng) for _ in chosen]
        packet = self._build_setup_packet(chosen, session_keys, destination)
        circuit = SphinxCircuit(
            hops=chosen, session_keys=session_keys, destination=destination
        )
        return circuit, packet.to_bytes()

    def _session_scalar(self) -> int:
        raw = generate_key(self.rng, size=ALPHA_SIZE)
        return 1 + int.from_bytes(raw, "big") % (GROUP_ORDER - 1)

    def _hop_secrets(self, hops: list[str]) -> tuple[list[int], list[bytes]]:
        """The per-hop ephemeral elements and shared secrets for one route."""
        exponent = self._session_scalar()
        alphas: list[int] = []
        secrets: list[bytes] = []
        for address in hops:
            node = self.directory.node(address)
            alpha = pow(GENERATOR, exponent, GROUP_PRIME)
            shared = _shared_secret(pow(node.dh_public, exponent, GROUP_PRIME))
            alphas.append(alpha)
            secrets.append(shared)
            exponent = (exponent * _blinding_factor(alpha, shared)) % GROUP_ORDER
        return alphas, secrets

    def _build_setup_packet(
        self, hops: list[str], session_keys: list[bytes], destination: str
    ) -> SphinxPacket:
        alphas, secrets = self._hop_secrets(hops)
        filler = _filler(secrets)
        # Deterministic pseudo-random padding fills the unused routing
        # region; it is keyed off the session scalar so rebuilding from the
        # same seed reproduces the packet bit-for-bit.
        pad_key = hashlib.sha256(
            b"sphinx-pad" + _element_bytes(alphas[0])
        ).digest()[:KEY_SIZE]
        pad = StreamCipher(pad_key).keystream(_NONCE, ROUTING_SIZE - HOP_SIZE)
        routing = b""
        mac = b"\x00" * MAC_SIZE  # an all-zero next-MAC marks the exit slot
        for index in range(len(hops) - 1, -1, -1):
            next_hop = hops[index + 1] if index + 1 < len(hops) else destination
            slot = _pack_slot(next_hop, session_keys[index], mac)
            if index == len(hops) - 1:
                routing = _xor(slot + pad, _stream(b"rho", secrets[index], ROUTING_SIZE))
                if filler:
                    routing = routing[: ROUTING_SIZE - len(filler)] + filler
            else:
                routing = _xor(
                    slot + routing[: ROUTING_SIZE - HOP_SIZE],
                    _stream(b"rho", secrets[index], ROUTING_SIZE),
                )
            mac = _mac(secrets[index], routing)
        return SphinxPacket(alpha=alphas[0], routing=routing, mac=mac)

    def wrap_cells(self, circuit: SphinxCircuit, messages: list[bytes]) -> list[bytes]:
        """Pad each message to a cell and layer one keystream per hop onto it.

        The hops' keystreams are combined once per circuit and applied to the
        whole burst in one vectorised XOR.
        """
        if not messages:
            return []
        cells = np.frombuffer(
            b"".join(pack_cell(message) for message in messages), dtype=np.uint8
        ).reshape(len(messages), DATA_CELL_SIZE)
        wrapped = cells ^ _cell_mask(circuit.session_keys)
        return [row.tobytes() for row in wrapped]

    def open_delivered(self, cell: bytes) -> bytes:
        """Parse a fully-stripped cell back into the original message."""
        return unpack_cell(cell)


class SphinxRelay:
    """One Sphinx relay: peels constant-size packets and strips cell layers."""

    def __init__(self, address: str, node: SphinxNode) -> None:
        self.address = address
        self.node = node
        self.sessions: dict[int, tuple[bytes, str]] = {}
        self._next_session = 0

    def peel(self, packet: SphinxPacket) -> tuple[bytes, str, SphinxPacket]:
        """Verify, unwrap one layer and blind the ephemeral element.

        Returns ``(session_key, next_hop, next_packet)``; the forwarded
        packet is exactly :data:`PACKET_SIZE` bytes again.  Raises
        :class:`~repro.core.errors.ProtocolError` if the MAC fails.
        """
        shared = _shared_secret(pow(packet.alpha, self.node.dh_secret, GROUP_PRIME))
        if not hmac.compare_digest(_mac(shared, packet.routing), packet.mac):
            raise ProtocolError(f"sphinx MAC check failed at {self.address}")
        unrolled = _xor(
            packet.routing + b"\x00" * HOP_SIZE,
            _stream(b"rho", shared, ROUTING_SIZE + HOP_SIZE),
        )
        next_hop, session_key, next_mac = _unpack_slot(unrolled[:HOP_SIZE])
        blind = _blinding_factor(packet.alpha, shared)
        next_packet = SphinxPacket(
            alpha=pow(packet.alpha, blind, GROUP_PRIME),
            routing=unrolled[HOP_SIZE:],
            mac=next_mac,
        )
        return session_key, next_hop, next_packet

    def handle_setup(self, blob: bytes) -> tuple[int, str, bytes]:
        """Peel one layer: returns (circuit handle, next hop, forwarded packet)."""
        session_key, next_hop, next_packet = self.peel(SphinxPacket.from_bytes(blob))
        handle = self._next_session
        self._next_session += 1
        self.sessions[handle] = (session_key, next_hop)
        return handle, next_hop, next_packet.to_bytes()

    def _session(self, handle: int) -> tuple[bytes, str]:
        try:
            return self.sessions[handle]
        except KeyError as exc:
            raise ProtocolError(f"unknown circuit handle {handle}") from exc

    def strip_cells(self, handle: int, cells: list[bytes]) -> tuple[str, list[bytes]]:
        """Strip this relay's keystream layer from a burst of data cells."""
        session_key, next_hop = self._session(handle)
        if not cells:
            return next_hop, []
        stacked = np.frombuffer(b"".join(cells), dtype=np.uint8).reshape(
            len(cells), DATA_CELL_SIZE
        )
        stripped = stacked ^ _cell_mask([session_key])
        return next_hop, [row.tobytes() for row in stripped]


def run_sphinx_circuit(
    directory: SphinxDirectory,
    source: SphinxSource,
    relays: list[str],
    destination: str,
    path_length: int,
    messages: list[bytes],
) -> tuple[SphinxCircuit, list[bytes]]:
    """Functional end-to-end helper: build a circuit and push messages through.

    Returns the circuit and the plaintexts that reached the destination.
    Used by tests to confirm the construction peels correctly hop by hop.
    """
    relay_engines = {
        address: SphinxRelay(address, directory.node(address))
        for address in directory.addresses()
    }
    circuit, packet = source.build_circuit(relays, destination, path_length)
    handles: list[int] = []
    current = packet
    for hop in circuit.hops:
        handle, _next_hop, current = relay_engines[hop].handle_setup(current)
        handles.append(handle)
    cells = source.wrap_cells(circuit, messages)
    for hop, handle in zip(circuit.hops, handles):
        _next_hop, cells = relay_engines[hop].strip_cells(handle, cells)
    return circuit, [source.open_delivered(cell) for cell in cells]
