"""Noise-style authenticated transport: pure handshake and cipher logic.

The asyncio overlay backend (:mod:`repro.overlay.aio`) speaks the
length-prefixed frames of :mod:`repro.net.framing`.  This module supplies the authenticated flavour of
that framing, modelled on Lightning's BOLT #8 transport (itself Noise_XK): a
three-act handshake establishing per-session send/receive keys, then one
AEAD-protected message per frame with an **encrypted length prefix**,
strictly increasing nonces, and periodic key rotation.  A passive observer
of a secure connection sees neither frame boundaries nor payload bytes; an
active attacker who flips a bit, truncates a body, or replays a ciphertext
fails the MAC check.

Like the rest of :mod:`repro.crypto`, the primitives are *simulated*
cryptography with real structure: the Diffie-Hellman group is modular
exponentiation over ``p = 2**255 - 19`` (the same group the Sphinx runtime
uses), the AEAD is the repo's SHAKE256 keystream :class:`~repro.crypto.
symmetric.StreamCipher` in encrypt-then-MAC composition with HMAC-SHA256, and
the key schedule is HKDF-SHA256.  Every structural property the tests rely on —
transcript binding, wrong-static-key rejection, nonce-reuse rejection,
tamper rejection, rotation continuity — holds exactly as in the production
construction; only the primitives' hardness is out of scope.

Handshake (Noise XK, as in BOLT #8)
-----------------------------------
The initiator must know the responder's static public key up front (the aio
backend's endpoints all share one process-local keypair); the initiator's own
static key travels *encrypted* inside act three, where the responder checks
it against an allowlist before any application frame is processed::

    initiator                      responder
        ----- act one (49 B) ----->    e, es
        <---- act two (49 B) ------    e, ee
        ----- act three (65 B) --->    s, se

Every act starts with a version byte.  It is ``0x01`` since the stream
cipher became a SHAKE256 XOF (``0x00`` was the SHA-256 counter construction):
the AEAD's ciphertext bytes differ between the two, so a peer of the other
release is turned away at the first act it sends — ``unsupported act one
version byte 0`` — instead of at a tag check that could not say why.
Both ends of a secure connection therefore run the same release.

Everything is a pure state machine — no sockets, no clocks.
:func:`handshake` sequences the three acts of either role as a generator
that yields bytes to send and byte counts to read, so the protocol is
enumerable in memory (``tests/test_secure_transport.py``); the I/O shim
that moves those bytes lives in :mod:`repro.net.channel`.

>>> import itertools
>>> counter = itertools.count(7)
>>> entropy = lambda n: bytes([next(counter) % 251] * n)   # test determinism
>>> server = StaticKeyPair.generate(entropy)
>>> client = StaticKeyPair.generate(entropy)
>>> ini = HandshakeState.initiator(client, server.public, entropy=entropy)
>>> res = HandshakeState.responder(server, entropy=entropy)
>>> res.read_act_one(ini.write_act_one())
>>> ini.read_act_two(res.write_act_two())
>>> res.read_act_three(ini.write_act_three()) == client.public
True
>>> ini_session, res_session = ini.session(), res.session()
>>> wire = ini_session.seal(b"job frame")
>>> len(wire) == LENGTH_CIPHERTEXT_SIZE + len(b"job frame") + TAG_SIZE
True
>>> header, body = wire[:LENGTH_CIPHERTEXT_SIZE], wire[LENGTH_CIPHERTEXT_SIZE:]
>>> res_session.body_size(header) == len(body)
True
>>> res_session.open(body)
b'job frame'
>>> res_session.body_size(header)            # replay: nonce moved on
Traceback (most recent call last):
    ...
repro.core.errors.FrameAuthenticationError: frame body failed authentication
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Generator

from ..core.errors import FrameAuthenticationError, HandshakeError
from .framing import FRAME_HEADER, check_frame_size

#: Hashed into the initial handshake digest; both sides must agree on it.
PROTOCOL_NAME = b"Noise_XK_repro+shake256+hmacsha256"

#: Simulated Diffie-Hellman group (shared with the Sphinx runtime).
GROUP_PRIME = 2**255 - 19
GROUP_ORDER = GROUP_PRIME - 1
GENERATOR = 5

#: Serialised group-element width (bytes).
PUBLIC_KEY_SIZE = 32
#: Static/ephemeral secret width (bytes).
SECRET_KEY_SIZE = 32
#: Truncated HMAC-SHA256 authentication tag per AEAD call.
TAG_SIZE = 16
#: Wire bytes of one encrypted length prefix (the plain wire's header + tag).
LENGTH_CIPHERTEXT_SIZE = FRAME_HEADER.size + TAG_SIZE
#: Messages a single session key may protect before rotating (BOLT #8 also
#: rotates every 1000).
REKEY_INTERVAL = 1000

#: Handshake message sizes: version byte + ephemeral + tag, and
#: version byte + encrypted static (32 + 16) + tag.
ACT_ONE_SIZE = 1 + PUBLIC_KEY_SIZE + TAG_SIZE
ACT_TWO_SIZE = 1 + PUBLIC_KEY_SIZE + TAG_SIZE
ACT_THREE_SIZE = 1 + PUBLIC_KEY_SIZE + TAG_SIZE + TAG_SIZE

_HANDSHAKE_VERSION = b"\x01"
_NONCE = struct.Struct("<Q")


# -- primitives ---------------------------------------------------------------------


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _hkdf2(salt: bytes, ikm: bytes) -> tuple[bytes, bytes]:
    """HKDF-SHA256 extract-and-expand into exactly two 32-byte keys."""
    prk = hmac.new(salt, ikm, hashlib.sha256).digest()
    first = hmac.new(prk, b"\x01", hashlib.sha256).digest()
    second = hmac.new(prk, first + b"\x02", hashlib.sha256).digest()
    return first, second


def _element_from_bytes(data: bytes) -> int:
    if len(data) != PUBLIC_KEY_SIZE:
        raise HandshakeError(
            f"group elements are {PUBLIC_KEY_SIZE} bytes, got {len(data)}"
        )
    element = int.from_bytes(data, "big")
    if not 2 <= element < GROUP_PRIME:
        raise HandshakeError("invalid group element")
    return element


@dataclass(frozen=True)
class StaticKeyPair:
    """A long-lived transport identity: 32-byte secret, derived public key.

    The group scalar is derived from the secret by hashing (mirroring the
    Sphinx runtime's key derivation), so a key file only ever stores the
    32 secret bytes.

    >>> pair = StaticKeyPair.from_secret(b"\\x07" * 32)
    >>> len(pair.public)
    32
    >>> pair.public == StaticKeyPair.from_secret(b"\\x07" * 32).public
    True
    """

    secret: bytes

    def __post_init__(self) -> None:
        if len(self.secret) != SECRET_KEY_SIZE:
            raise HandshakeError(
                f"static secrets are {SECRET_KEY_SIZE} bytes, got {len(self.secret)}"
            )

    @classmethod
    def from_secret(cls, secret: bytes) -> "StaticKeyPair":
        return cls(secret=bytes(secret))

    @classmethod
    def generate(
        cls, entropy: Callable[[int], bytes] = os.urandom
    ) -> "StaticKeyPair":
        return cls(secret=bytes(entropy(SECRET_KEY_SIZE)))

    @property
    def scalar(self) -> int:
        digest = _sha256(b"repro-net-dh" + self.secret)
        return 1 + int.from_bytes(digest, "big") % (GROUP_ORDER - 1)

    @property
    def public(self) -> bytes:
        return pow(GENERATOR, self.scalar, GROUP_PRIME).to_bytes(
            PUBLIC_KEY_SIZE, "big"
        )

    def ecdh(self, remote_public: bytes) -> bytes:
        """The shared secret with ``remote_public`` (hashed group product)."""
        shared = pow(_element_from_bytes(remote_public), self.scalar, GROUP_PRIME)
        return _sha256(b"repro-net-ecdh" + shared.to_bytes(PUBLIC_KEY_SIZE, "big"))


# -- AEAD ---------------------------------------------------------------------------


def aead_encrypt(key: bytes, nonce: int, associated_data: bytes, plaintext: bytes) -> bytes:
    """Encrypt-then-MAC with the repo's keystream cipher: ct || 16-byte tag.

    Stands in for ChaCha20-Poly1305: a 64-bit little-endian nonce selects the
    SHAKE256 keystream, and the tag binds key, nonce, associated data and
    ciphertext.
    """
    from ..crypto.symmetric import StreamCipher

    nonce_bytes = _NONCE.pack(nonce)
    ciphertext = (
        StreamCipher(key).encrypt(plaintext, nonce_bytes) if plaintext else b""
    )
    mac = hmac.new(
        key, nonce_bytes + associated_data + ciphertext, hashlib.sha256
    ).digest()
    return ciphertext + mac[:TAG_SIZE]


def aead_decrypt(key: bytes, nonce: int, associated_data: bytes, data: bytes) -> bytes:
    """Verify the tag, then decrypt; raises on any mismatch.

    :raises FrameAuthenticationError: truncated input or failed tag check.
    """
    from ..crypto.symmetric import StreamCipher

    if len(data) < TAG_SIZE:
        raise FrameAuthenticationError("ciphertext shorter than its tag")
    ciphertext, tag = data[:-TAG_SIZE], data[-TAG_SIZE:]
    nonce_bytes = _NONCE.pack(nonce)
    expected = hmac.new(
        key, nonce_bytes + associated_data + ciphertext, hashlib.sha256
    ).digest()[:TAG_SIZE]
    if not hmac.compare_digest(tag, expected):
        raise FrameAuthenticationError("frame body failed authentication")
    return StreamCipher(key).decrypt(ciphertext, nonce_bytes) if ciphertext else b""


# -- cipher state -------------------------------------------------------------------


@dataclass
class CipherState:
    """One direction of an established session: key, nonce, rotation chain.

    The nonce increases by one per message and never repeats under a key;
    after :data:`REKEY_INTERVAL` messages the key ratchets forward through
    the chaining key (and the old key is unrecoverable — forward secrecy
    within the session).

    >>> state = CipherState(key=b"k" * 32, chaining_key=b"c" * 32)
    >>> peer = CipherState(key=b"k" * 32, chaining_key=b"c" * 32)
    >>> peer.decrypt(b"", state.encrypt(b"", b"hello"))
    b'hello'
    >>> state.nonce, peer.nonce
    (1, 1)
    """

    key: bytes
    chaining_key: bytes
    nonce: int = 0
    messages_protected: int = field(default=0, repr=False)

    def encrypt(self, associated_data: bytes, plaintext: bytes) -> bytes:
        data = aead_encrypt(self.key, self.nonce, associated_data, plaintext)
        self._advance()
        return data

    def decrypt(self, associated_data: bytes, data: bytes) -> bytes:
        plaintext = aead_decrypt(self.key, self.nonce, associated_data, data)
        self._advance()
        return plaintext

    def _advance(self) -> None:
        self.nonce += 1
        self.messages_protected += 1
        if self.nonce >= REKEY_INTERVAL:
            self.rotate()

    def rotate(self) -> None:
        """Ratchet to a fresh key through the chaining key; reset the nonce."""
        self.chaining_key, self.key = _hkdf2(self.chaining_key, self.key)
        self.nonce = 0


class SecureSession:
    """An established connection's two cipher states plus its peer identity.

    The same four-member surface as the plain session
    (:mod:`repro.net.framing`), one layer down: each frame becomes an
    encrypted 4-byte length prefix (so even frame boundaries are hidden)
    followed by the encrypted payload, each carrying its own tag.  Size
    violations raise the plain framing's
    :class:`~repro.core.errors.PacketFormatError`;
    :class:`~repro.core.errors.FrameAuthenticationError` is reserved for
    tampered, replayed or truncated ciphertext.
    """

    header_size = LENGTH_CIPHERTEXT_SIZE

    def __init__(
        self,
        send_cipher: CipherState,
        recv_cipher: CipherState,
        remote_public: bytes,
        handshake_hash: bytes,
    ) -> None:
        self.send_cipher = send_cipher
        self.recv_cipher = recv_cipher
        self.remote_public = remote_public
        self.handshake_hash = handshake_hash

    def seal(self, payload: bytes) -> bytes:
        """One plaintext frame payload -> its complete secure wire message."""
        header = self.send_cipher.encrypt(
            b"", FRAME_HEADER.pack(check_frame_size(len(payload)))
        )
        return header + self.send_cipher.encrypt(b"", payload)

    def body_size(self, header: bytes) -> int:
        """Open an encrypted length prefix; returns the body's wire size."""
        if len(header) != LENGTH_CIPHERTEXT_SIZE:
            raise FrameAuthenticationError(
                f"encrypted length prefixes are {LENGTH_CIPHERTEXT_SIZE} bytes, "
                f"got {len(header)}"
            )
        (length,) = FRAME_HEADER.unpack(self.recv_cipher.decrypt(b"", header))
        return check_frame_size(length) + TAG_SIZE

    def open(self, body: bytes) -> bytes:
        """Open a frame body read after :meth:`body_size`."""
        return self.recv_cipher.decrypt(b"", body)


# -- handshake ----------------------------------------------------------------------


class HandshakeState:
    """The three-act Noise XK handshake as a pure state machine.

    Build one side with :meth:`initiator` (requires the responder's static
    public key) or :meth:`responder`, feed acts across in order, then call
    :meth:`session`.  Any MAC failure, malformed element or out-of-order act
    raises :class:`~repro.core.errors.HandshakeError` and poisons the state.
    """

    def __init__(
        self,
        role: str,
        local_static: StaticKeyPair,
        remote_static: bytes | None,
        prologue: bytes,
        entropy: Callable[[int], bytes],
    ) -> None:
        if role not in ("initiator", "responder"):
            raise HandshakeError(f"unknown handshake role {role!r}")
        if role == "initiator" and remote_static is None:
            raise HandshakeError(
                "the initiator must know the responder's static public key"
            )
        self.role = role
        self.local_static = local_static
        self.remote_static = remote_static
        self.entropy = entropy
        self._ephemeral: StaticKeyPair | None = None
        self._remote_ephemeral: bytes | None = None
        self._temp_key = b""
        self._stage = 0
        self._failed = False
        # h/ck initialisation, exactly as BOLT #8 prescribes; the responder
        # mixes in its *own* static key, which is why an initiator dialling
        # with the wrong expected key fails act one.
        self.hash = _sha256(PROTOCOL_NAME)
        self.chaining_key = self.hash
        self.hash = _sha256(self.hash + prologue)
        anchor = remote_static if role == "initiator" else local_static.public
        self.hash = _sha256(self.hash + anchor)

    @classmethod
    def initiator(
        cls,
        local_static: StaticKeyPair,
        remote_static: bytes,
        prologue: bytes = b"",
        entropy: Callable[[int], bytes] = os.urandom,
    ) -> "HandshakeState":
        _element_from_bytes(remote_static)
        return cls("initiator", local_static, bytes(remote_static), prologue, entropy)

    @classmethod
    def responder(
        cls,
        local_static: StaticKeyPair,
        prologue: bytes = b"",
        entropy: Callable[[int], bytes] = os.urandom,
    ) -> "HandshakeState":
        return cls("responder", local_static, None, prologue, entropy)

    # -- shared helpers -------------------------------------------------------------

    def _expect(self, stage: int, role: str) -> None:
        if self._failed:
            raise HandshakeError("handshake already failed; start a new one")
        if self.role != role or self._stage != stage:
            raise HandshakeError(
                f"handshake act out of order (stage {self._stage}, role {self.role})"
            )

    def _mix_hash(self, data: bytes) -> None:
        self.hash = _sha256(self.hash + data)

    def _mix_key(self, ikm: bytes) -> None:
        self.chaining_key, self._temp_key = _hkdf2(self.chaining_key, ikm)

    def _ephemeral_keypair(self) -> StaticKeyPair:
        if self._ephemeral is None:
            self._ephemeral = StaticKeyPair.generate(self.entropy)
        return self._ephemeral

    def _decrypt(self, nonce: int, data: bytes) -> bytes:
        try:
            return aead_decrypt(self._temp_key, nonce, self.hash, data)
        except FrameAuthenticationError:
            self._failed = True
            raise HandshakeError(
                "handshake MAC check failed (wrong static key or tampered act)"
            ) from None

    @staticmethod
    def _parse_act(data: bytes, size: int, act: str) -> bytes:
        if len(data) != size:
            raise HandshakeError(f"{act} must be {size} bytes, got {len(data)}")
        if data[:1] != _HANDSHAKE_VERSION:
            raise HandshakeError(f"unsupported {act} version byte {data[0]!r}")
        return data[1:]

    # -- act one --------------------------------------------------------------------

    def write_act_one(self) -> bytes:
        self._expect(0, "initiator")
        ephemeral = self._ephemeral_keypair()
        self._mix_hash(ephemeral.public)
        self._mix_key(ephemeral.ecdh(self.remote_static))
        tag = aead_encrypt(self._temp_key, 0, self.hash, b"")
        self._mix_hash(tag)
        self._stage = 1
        return _HANDSHAKE_VERSION + ephemeral.public + tag

    def read_act_one(self, data: bytes) -> None:
        self._expect(0, "responder")
        body = self._parse_act(data, ACT_ONE_SIZE, "act one")
        remote_ephemeral, tag = body[:PUBLIC_KEY_SIZE], body[PUBLIC_KEY_SIZE:]
        _element_from_bytes(remote_ephemeral)
        self._remote_ephemeral = remote_ephemeral
        self._mix_hash(remote_ephemeral)
        self._mix_key(self.local_static.ecdh(remote_ephemeral))
        self._decrypt(0, tag)
        self._mix_hash(tag)
        self._stage = 1

    # -- act two --------------------------------------------------------------------

    def write_act_two(self) -> bytes:
        self._expect(1, "responder")
        ephemeral = self._ephemeral_keypair()
        self._mix_hash(ephemeral.public)
        self._mix_key(ephemeral.ecdh(self._remote_ephemeral))
        tag = aead_encrypt(self._temp_key, 0, self.hash, b"")
        self._mix_hash(tag)
        self._stage = 2
        return _HANDSHAKE_VERSION + ephemeral.public + tag

    def read_act_two(self, data: bytes) -> None:
        self._expect(1, "initiator")
        body = self._parse_act(data, ACT_TWO_SIZE, "act two")
        remote_ephemeral, tag = body[:PUBLIC_KEY_SIZE], body[PUBLIC_KEY_SIZE:]
        _element_from_bytes(remote_ephemeral)
        self._remote_ephemeral = remote_ephemeral
        self._mix_hash(remote_ephemeral)
        self._mix_key(self._ephemeral_keypair().ecdh(remote_ephemeral))
        self._decrypt(0, tag)
        self._mix_hash(tag)
        self._stage = 2

    # -- act three ------------------------------------------------------------------

    def write_act_three(self) -> bytes:
        self._expect(2, "initiator")
        encrypted_static = aead_encrypt(
            self._temp_key, 1, self.hash, self.local_static.public
        )
        self._mix_hash(encrypted_static)
        self._mix_key(self.local_static.ecdh(self._remote_ephemeral))
        tag = aead_encrypt(self._temp_key, 0, self.hash, b"")
        self._mix_hash(tag)
        self._stage = 3
        return _HANDSHAKE_VERSION + encrypted_static + tag

    def read_act_three(self, data: bytes) -> bytes:
        """Consume act three; returns the initiator's authenticated static key.

        The caller (:func:`handshake`'s responder branch) checks the
        returned key against its allowlist *before* any session exists.
        """
        self._expect(2, "responder")
        body = self._parse_act(data, ACT_THREE_SIZE, "act three")
        encrypted_static = body[: PUBLIC_KEY_SIZE + TAG_SIZE]
        tag = body[PUBLIC_KEY_SIZE + TAG_SIZE :]
        remote_static = self._decrypt(1, encrypted_static)
        _element_from_bytes(remote_static)
        self._mix_hash(encrypted_static)
        self._mix_key(self._ephemeral_keypair().ecdh(remote_static))
        self._decrypt(0, tag)
        self._mix_hash(tag)
        self.remote_static = remote_static
        self._stage = 3
        return remote_static

    # -- transport keys -------------------------------------------------------------

    def session(self) -> SecureSession:
        """Derive the transport cipher states once all three acts are done."""
        if self._stage != 3 or self._failed:
            raise HandshakeError("handshake incomplete; no transport keys yet")
        sending, receiving = _hkdf2(self.chaining_key, b"")
        if self.role == "responder":
            sending, receiving = receiving, sending
        return SecureSession(
            send_cipher=CipherState(key=sending, chaining_key=self.chaining_key),
            recv_cipher=CipherState(key=receiving, chaining_key=self.chaining_key),
            remote_public=self.remote_static,
            handshake_hash=self.hash,
        )


def handshake(
    keypair: StaticKeyPair,
    remote_public: bytes | None = None,
    authorized: frozenset[bytes] = frozenset(),
    entropy: Callable[[int], bytes] = os.urandom,
) -> Generator[bytes | int, bytes | None, SecureSession]:
    """The three acts of one side, sans I/O; returns the established session.

    Yields ``bytes`` for the driver to send and an ``int`` for it to read
    that many bytes and send back in (fewer only if the peer closed — the
    act parser then rejects the stump).  The dialling side passes the
    responder's ``remote_public``; the accepting side leaves it ``None`` and
    passes the static keys it ``authorized``, and an initiator outside that
    allowlist raises :class:`~repro.core.errors.HandshakeError` before a
    session is derived, so it never gets an application frame processed.
    """
    if remote_public is not None:
        state = HandshakeState.initiator(keypair, remote_public, entropy=entropy)
        yield state.write_act_one()
        state.read_act_two((yield ACT_TWO_SIZE))
        yield state.write_act_three()
    else:
        state = HandshakeState.responder(keypair, entropy=entropy)
        state.read_act_one((yield ACT_ONE_SIZE))
        yield state.write_act_two()
        remote = state.read_act_three((yield ACT_THREE_SIZE))
        if remote not in authorized:
            raise HandshakeError(
                f"unauthorized static key {remote.hex()[:16]}… rejected by allowlist"
            )
    return state.session()
