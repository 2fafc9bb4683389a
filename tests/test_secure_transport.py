"""Enumerated, property and loopback tests for the authenticated transport.

The whole wire layer is sans-I/O — the handshake is a generator, a session
is a byte-in/byte-out object — so almost everything here runs in memory with
injected entropy: a lock-step driver plays the initiator and responder
generators against each other and *enumerates* the ways a handshake can be
attacked (every truncation of every act, swapped and replayed acts, wrong
and unauthorized keys); a scripted stream feeds the real
:class:`~repro.net.AioChannel` one byte at a time.  One test crosses real
loopback sockets: an aio dialler against an aio acceptor, with an
authorized and a rogue static key.  That the secure aio overlay delivers
what the plain one and the simulator deliver is pinned in
``tests/test_aio_backend.py``.
"""

import asyncio
import hashlib
import itertools
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    FrameAuthenticationError,
    HandshakeError,
    PacketFormatError,
)
from repro.net import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    PLAIN,
    AioChannel,
    StaticKeyPair,
    handshake,
)
from repro.net.secure import (
    ACT_ONE_SIZE,
    ACT_THREE_SIZE,
    ACT_TWO_SIZE,
    REKEY_INTERVAL,
    TAG_SIZE,
    HandshakeState,
    aead_decrypt,
    aead_encrypt,
)

def keypair(tag: bytes) -> StaticKeyPair:
    """A deterministic static keypair from a test label (secrets are 32B)."""
    return StaticKeyPair.from_secret(hashlib.sha256(tag).digest())


def entropy_from(seed: bytes):
    """A deterministic ``os.urandom`` stand-in: a counter-mode SHA-256 feed."""
    counter = itertools.count()

    def entropy(size: int) -> bytes:
        stream = b""
        label = next(counter).to_bytes(8, "big")
        while len(stream) < size:
            stream += hashlib.sha256(
                seed + label + len(stream).to_bytes(8, "big")
            ).digest()
        return stream[:size]

    return entropy


# -- in-memory drivers --------------------------------------------------------------


@dataclass
class Outcome:
    """How a lock-step handshake ended, per side (``"i"`` / ``"r"``)."""

    acts: list[bytes] = field(default_factory=list)
    sessions: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)


def lockstep(initiator, responder, deliver=lambda index, act: act) -> Outcome:
    """Play two handshake generators against each other, no sockets.

    Every message a side yields goes through ``deliver(index, act)`` (index
    0–2 in wire order — the tampering hook) into its peer's inbox.  A side
    whose read cannot be satisfied once nobody can send any more gets the
    stump, exactly what the shims hand over when the peer has closed.
    """
    sides = {"i": initiator, "r": responder}
    inbox = {"i": b"", "r": b""}
    wants: dict[str, int] = {}
    outcome = Outcome()

    def advance(side: str, reply: bytes | None = None) -> None:
        try:
            while True:
                step = sides[side].send(reply)
                reply = None
                if isinstance(step, int):
                    wants[side] = step
                    return
                inbox["r" if side == "i" else "i"] += deliver(len(outcome.acts), step)
                outcome.acts.append(step)
        except StopIteration as done:
            outcome.sessions[side] = done.value
        except HandshakeError as exc:
            outcome.errors[side] = exc

    advance("i")
    advance("r")
    while wants:
        ready = [side for side, size in wants.items() if len(inbox[side]) >= size]
        side = ready[0] if ready else next(iter(wants))
        size = wants.pop(side)
        data, inbox[side] = inbox[side][:size], inbox[side][size:]
        advance(side, data)
    return outcome


def honest_pair(pair_i, pair_r, seed: bytes = b"", authorized=None):
    """Fresh initiator and responder generators with seeded entropy."""
    if authorized is None:
        authorized = frozenset({pair_i.public})
    return (
        handshake(pair_i, remote_public=pair_r.public, entropy=entropy_from(seed + b"i")),
        handshake(pair_r, authorized=authorized, entropy=entropy_from(seed + b"r")),
    )


def complete_handshake(pair_i, pair_r, seed: bytes = b""):
    """Run all three acts in memory; returns (initiator, responder) sessions."""
    outcome = lockstep(*honest_pair(pair_i, pair_r, seed))
    assert not outcome.errors
    assert [len(act) for act in outcome.acts] == [
        ACT_ONE_SIZE,
        ACT_TWO_SIZE,
        ACT_THREE_SIZE,
    ]
    return outcome.sessions["i"], outcome.sessions["r"]


class RecordingWriter:
    """The writer half of a scripted connection: it keeps what was sent."""

    def __init__(self) -> None:
        self.sent = b""

    def write(self, data: bytes) -> None:
        self.sent += data

    def writelines(self, chunks) -> None:
        self.sent += b"".join(chunks)

    async def drain(self) -> None:
        pass


def scripted_channel(incoming: bytes, session=PLAIN) -> AioChannel:
    """A channel whose reader gets ``incoming`` one byte at a time, then EOF.

    Call it inside a running loop: a task trickles the bytes in, yielding to
    the loop after each one, so every read the shim makes is a partial one.
    """
    reader = asyncio.StreamReader()

    async def trickle() -> None:
        for index in range(len(incoming)):
            reader.feed_data(incoming[index : index + 1])
            await asyncio.sleep(0)
        reader.feed_eof()

    channel = AioChannel(reader, RecordingWriter(), session)
    channel.trickle = asyncio.get_running_loop().create_task(trickle())
    return channel


def read_frames(session, wire: bytes) -> list[bytes]:
    """Every frame in ``wire``, read through the real aio shim byte by byte."""

    async def read() -> list[bytes]:
        channel = scripted_channel(wire, session)
        frames = []
        try:
            while (frame := await channel.recv_frame()) is not None:
                frames.append(frame)
        finally:
            channel.trickle.cancel()
        return frames

    return asyncio.run(read())


secrets = st.binary(min_size=1, max_size=48)
seeds = st.binary(min_size=0, max_size=16)
payloads = st.lists(st.binary(max_size=256), min_size=1, max_size=6)

#: The three acts as the PR 20 release sent them (version byte ``0x00``, SHA-256
#: counter keystream; recorded at commit 57cf95e with the ``vector-`` keys and
#: entropy below): the ready-made "old peer" for the version-byte tests.
PR20_ACTS = [
    "0001d57425c02349bd46ef6b4acf4b0e0aa3958382f69167c6dc2d33e15005e5ba"
    "913693cb3c3863ffbedff141849d3d69",
    "003e67638a6951f407dec059d0627470c7fb3a5f77a199ad733973ff441eb0b965"
    "24eb75d52bf214a6a01169079c55e59f",
    "00eb37576473cf8f6971571a22ce7aecba16bf2124ad39f15b05d08b18ec507e67"
    "33878b0a2910a9b3e466311dd357cd90c332fc132d225c294c719737e6a35a1e",
]

#: Recorded with ``keypair(b"vector-i")`` / ``keypair(b"vector-r")`` and
#: ``entropy_from(b"vector-i")`` / ``entropy_from(b"vector-r")``, and re-recorded
#: once, deliberately, when the stream cipher became a SHAKE256 XOF and the
#: handshake version byte went ``0x00`` -> ``0x01``: the wire bytes of the
#: secure flavour must never change under a refactor.
VECTOR = {
    "acts": [
        "0101d57425c02349bd46ef6b4acf4b0e0aa3958382f69167c6dc2d33e15005e5ba"
        "77e38daa52f03e6f3a817d93dcb1e5cb",
        "013e67638a6951f407dec059d0627470c7fb3a5f77a199ad733973ff441eb0b965"
        "934ca3e5633ed3d0c5d132c5b7ab1696",
        "01518878a42f4365cc2bb7a0bb5353b440f4a4f9e8c2780a2121ff42fcdc8a6bac"
        "17e492f25b0ce4099d311e28f22e6741cd2e335b40c6c3900bfff4d2724e4dc6",
    ],
    "initiator_frames": {
        b"hello": "d27f389e328ff63326d5637d550e589b25c29a9aa5b893ea64163d8a7f59cd"
        "2f928571b7bf81b6f926",
        b"": "ae43452b65537187496ceb98f25aee5de9f219cecb14ed6a1e3a42d45ea5b294"
        "bdddebd8",
    },
    "responder_frames": {
        b"job frame": "d6c4a9e262e67102626c8b79196d82d0f720b5426349c44e74a40eb1ddb308"
        "f12f133d92fc07419452c5559c9f",
    },
}


def vector_outcome(deliver=lambda index, act: act, **kwargs) -> Outcome:
    pair_i, pair_r = keypair(b"vector-i"), keypair(b"vector-r")
    return lockstep(*honest_pair(pair_i, pair_r, b"vector-", **kwargs), deliver)


# -- the handshake, enumerated ------------------------------------------------------


def test_handshake_and_first_frames_match_the_recorded_vector():
    outcome = vector_outcome()
    assert [act.hex() for act in outcome.acts] == VECTOR["acts"]
    for side, frames in (("i", "initiator_frames"), ("r", "responder_frames")):
        for payload, sealed in VECTOR[frames].items():
            assert outcome.sessions[side].seal(payload).hex() == sealed


def test_old_release_version_byte_is_rejected_at_every_act():
    old_one, old_two, old_three = (bytes.fromhex(act) for act in PR20_ACTS)
    pair_i, pair_r = keypair(b"vector-i"), keypair(b"vector-r")

    def old_initiator():
        yield old_one
        if len((yield ACT_TWO_SIZE)) == ACT_TWO_SIZE:
            yield old_three

    def old_responder():
        yield ACT_ONE_SIZE
        yield old_two
        yield ACT_THREE_SIZE

    # An old worker dials a new coordinator: turned away at act one, by name,
    # and the coordinator never answers.
    _, responder = honest_pair(pair_i, pair_r, b"vector-")
    outcome = lockstep(old_initiator(), responder)
    assert str(outcome.errors["r"]) == "unsupported act one version byte 0"
    assert outcome.acts == [old_one] and "r" not in outcome.sessions
    # A new worker dials an old coordinator: the old side refuses act one the
    # same way; were it to answer anyway, its act two is refused here and act
    # three never leaves.
    initiator, _ = honest_pair(pair_i, pair_r, b"vector-")
    outcome = lockstep(initiator, old_responder())
    assert str(outcome.errors["i"]) == "unsupported act two version byte 0"
    assert outcome.acts[1:] == [old_two] and "i" not in outcome.sessions
    # An old act three spliced into an otherwise current handshake.
    outcome = vector_outcome(lambda index, act: old_three if index == 2 else act)
    assert str(outcome.errors["r"]) == "unsupported act three version byte 0"
    assert "r" not in outcome.sessions
    # The state machine itself derives nothing after a refused act.
    state = HandshakeState.responder(pair_r, entropy=entropy_from(b"vector-r"))
    with pytest.raises(HandshakeError, match="unsupported act one version byte 0"):
        state.read_act_one(old_one)
    with pytest.raises(HandshakeError, match="handshake incomplete"):
        state.session()


def test_every_truncation_of_every_act_is_rejected():
    reader = {0: "r", 1: "i", 2: "r"}
    for act, size in enumerate((ACT_ONE_SIZE, ACT_TWO_SIZE, ACT_THREE_SIZE)):
        for cut in range(size):
            outcome = vector_outcome(
                lambda index, data: data[:cut] if index == act else data
            )
            # The side that read the stump fails and never derives a session;
            # nothing past the cut is ever sent, so its peer starves too
            # (an initiator that already sent act three is the one exception:
            # in XK it finishes first, talking to a responder that is gone).
            assert isinstance(outcome.errors[reader[act]], HandshakeError)
            assert reader[act] not in outcome.sessions
            assert "r" not in outcome.sessions
            assert len(outcome.acts) == act + 1


@pytest.mark.parametrize(("first", "second"), [(0, 1), (0, 2), (1, 2)])
def test_swapped_acts_are_rejected(first, second):
    honest = vector_outcome().acts
    swap = {first: honest[second], second: honest[first]}
    outcome = vector_outcome(lambda index, data: swap.get(index, data))
    assert outcome.errors and not outcome.sessions.get("r")
    assert all(isinstance(error, HandshakeError) for error in outcome.errors.values())
    # The handshake died at the first swapped act; the second was never sent.
    assert len(outcome.acts) == first + 1


def test_replayed_initiator_transcript_is_rejected():
    honest = vector_outcome().acts

    def replayer():
        yield honest[0]
        yield ACT_TWO_SIZE
        yield honest[2]

    # Act one is replayable by design (it carries no responder freshness);
    # the recorded act three then fails against the fresh responder ephemeral.
    victim = handshake(
        keypair(b"vector-r"),
        authorized=frozenset({keypair(b"vector-i").public}),
        entropy=entropy_from(b"another day"),
    )
    outcome = lockstep(replayer(), victim)
    assert "MAC check failed" in str(outcome.errors["r"])
    assert "r" not in outcome.sessions
    assert len(outcome.acts) == 3 and outcome.acts[1] != honest[1]
    # Replaying act one in place of act three is a stump, rejected likewise.
    outcome = vector_outcome(lambda index, data: honest[0] if index == 2 else data)
    assert isinstance(outcome.errors["r"], HandshakeError)
    assert "r" not in outcome.sessions


def test_unauthorized_initiator_key_is_rejected_before_a_session_exists():
    outcome = vector_outcome(authorized=frozenset({keypair(b"someone else").public}))
    assert "unauthorized static key" in str(outcome.errors["r"])
    assert "r" not in outcome.sessions


@settings(max_examples=40, deadline=None)
@given(secret_i=secrets, secret_r=secrets, seed=seeds, messages=payloads)
def test_handshake_transcript_round_trip(secret_i, secret_r, seed, messages):
    pair_i = keypair(b"i" + secret_i)
    pair_r = keypair(b"r" + secret_r)
    session_i, session_r = complete_handshake(pair_i, pair_r, seed)
    # Both sides bind the same transcript and authenticate each other.
    assert session_i.handshake_hash == session_r.handshake_hash
    assert session_i.remote_public == pair_r.public
    assert session_r.remote_public == pair_i.public
    # Frames round-trip in both directions, interleaved.
    for message in messages:
        assert read_frames(session_r, session_i.seal(message)) == [message]
        assert read_frames(session_i, session_r.seal(message)) == [message]


@settings(max_examples=25, deadline=None)
@given(secret_i=secrets, secret_r=secrets, secret_x=secrets, seed=seeds)
def test_wrong_responder_static_key_fails_act_one(
    secret_i, secret_r, secret_x, seed
):
    pair_i = keypair(b"i" + secret_i)
    pair_r = keypair(b"r" + secret_r)
    expected = keypair(b"x" + secret_x)
    if expected.public == pair_r.public:  # pragma: no cover - astronomically rare
        return
    # The initiator dials with the wrong expected static key: the responder's
    # very first MAC check fails, before any identity or payload crosses.
    initiator = HandshakeState.initiator(
        pair_i, expected.public, entropy=entropy_from(seed + b"i")
    )
    responder = HandshakeState.responder(pair_r, entropy=entropy_from(seed + b"r"))
    with pytest.raises(HandshakeError, match="MAC check failed"):
        responder.read_act_one(initiator.write_act_one())
    # The failure poisons the state: no transport keys can ever be derived.
    with pytest.raises(HandshakeError):
        responder.session()
    # Through the generators: one act crosses, neither side gets a session.
    outcome = lockstep(
        handshake(pair_i, remote_public=expected.public, entropy=entropy_from(seed)),
        handshake(pair_r, authorized=frozenset({pair_i.public})),
    )
    assert set(outcome.errors) == {"i", "r"} and not outcome.sessions
    assert len(outcome.acts) == 1


@settings(max_examples=25, deadline=None)
@given(seed=seeds, act=st.integers(0, 2), index=st.integers(1, 48))
def test_tampered_handshake_act_is_rejected(seed, act, index):
    pair_i = keypair(seed + b"tamper-i")
    pair_r = keypair(seed + b"tamper-r")

    def flip(position: int, data: bytes) -> bytes:
        if position != act:
            return data
        flipped = bytearray(data)
        flipped[index % len(flipped)] ^= 0x40
        return bytes(flipped)

    outcome = lockstep(*honest_pair(pair_i, pair_r, seed), flip)
    assert isinstance(outcome.errors["i" if act == 1 else "r"], HandshakeError)
    assert "r" not in outcome.sessions
    assert len(outcome.acts) == act + 1


def test_handshake_acts_out_of_order_are_rejected():
    pair_i = keypair(b"order-i")
    pair_r = keypair(b"order-r")
    initiator = HandshakeState.initiator(pair_i, pair_r.public)
    with pytest.raises(HandshakeError, match="out of order"):
        initiator.write_act_three()
    with pytest.raises(HandshakeError, match="out of order"):
        initiator.read_act_one(b"\x00" * 49)
    with pytest.raises(HandshakeError, match="incomplete"):
        initiator.session()


# -- transport-frame properties -----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=seeds, messages=payloads)
def test_frames_round_trip_one_byte_at_a_time_on_both_session_kinds(seed, messages):
    session_i, session_r = complete_handshake(keypair(b"rt-i"), keypair(b"rt-r"), seed)
    for sender, receiver in ((PLAIN, PLAIN), (session_i, session_r)):
        wire = b"".join(sender.seal(message) for message in messages)
        assert read_frames(receiver, wire) == messages


@pytest.mark.parametrize("kind", ["plain", "secure"])
def test_size_violations_raise_packet_format_error_on_both_session_kinds(kind):
    if kind == "plain":
        sender = receiver = PLAIN
        declare, overhead = FRAME_HEADER.pack, 0
    else:
        sender, receiver = complete_handshake(keypair(b"size-i"), keypair(b"size-r"))
        overhead = TAG_SIZE

        def declare(length: int) -> bytes:
            # A peer holding the session keys can authenticate any length it
            # likes: the MAC verifies, the bound still applies.
            return sender.send_cipher.encrypt(b"", FRAME_HEADER.pack(length))

    with pytest.raises(PacketFormatError, match="over the"):
        sender.seal(bytes(MAX_FRAME_BYTES + 1))
    with pytest.raises(PacketFormatError, match="over the"):
        receiver.body_size(declare(MAX_FRAME_BYTES + 1))
    # The bound itself is legal, and the session is still in step after it.
    assert receiver.body_size(declare(MAX_FRAME_BYTES)) == MAX_FRAME_BYTES + overhead


@settings(max_examples=40, deadline=None)
@given(seed=seeds, message=st.binary(max_size=256))
def test_replayed_frame_is_rejected(seed, message):
    pair_i = keypair(seed + b"replay-i")
    pair_r = keypair(seed + b"replay-r")
    session_i, session_r = complete_handshake(pair_i, pair_r, seed)
    wire = session_i.seal(message)
    assert read_frames(session_r, wire) == [message]
    # The receive nonce advanced, so the identical bytes no longer verify.
    with pytest.raises(FrameAuthenticationError):
        read_frames(session_r, wire)


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    message=st.binary(max_size=256),
    index=st.integers(0, 10_000),
    truncate=st.booleans(),
)
def test_tampered_or_truncated_frame_is_rejected(seed, message, index, truncate):
    pair_i = keypair(seed + b"mangle-i")
    pair_r = keypair(seed + b"mangle-r")
    session_i, session_r = complete_handshake(pair_i, pair_r, seed)
    wire = session_i.seal(message)
    if truncate:
        # A connection that closes inside a frame; at offset 0 it is a clean
        # close between frames instead.
        cut = index % len(wire)
        if cut == 0:
            assert read_frames(session_r, b"") == []
            return
        with pytest.raises(PacketFormatError, match="mid-frame"):
            read_frames(session_r, wire[:cut])
        return
    flipped = bytearray(wire)
    flipped[index % len(flipped)] ^= 0x01
    with pytest.raises(FrameAuthenticationError):
        read_frames(session_r, bytes(flipped))


def test_nonces_advance_and_keys_rotate_across_the_rekey_interval():
    pair_i = keypair(b"rekey-i")
    pair_r = keypair(b"rekey-r")
    session_i, session_r = complete_handshake(pair_i, pair_r)
    first_key = session_i.send_cipher.key
    # Each frame costs two nonces (length prefix + body), so this crosses
    # the REKEY_INTERVAL boundary with room to spare.
    for sequence in range(REKEY_INTERVAL // 2 + 4):
        message = b"frame %d" % sequence
        assert read_frames(session_r, session_i.seal(message)) == [message]
    assert session_i.send_cipher.key != first_key
    assert session_r.recv_cipher.key == session_i.send_cipher.key
    assert session_i.send_cipher.nonce < REKEY_INTERVAL


def test_aead_rejects_nonce_and_associated_data_mismatch():
    key = b"k" * 32
    sealed = aead_encrypt(key, 7, b"ad", b"payload")
    assert aead_decrypt(key, 7, b"ad", sealed) == b"payload"
    with pytest.raises(FrameAuthenticationError):
        aead_decrypt(key, 8, b"ad", sealed)  # nonce reuse/skew
    with pytest.raises(FrameAuthenticationError):
        aead_decrypt(key, 7, b"other", sealed)
    with pytest.raises(FrameAuthenticationError):
        aead_decrypt(key, 7, b"ad", sealed[:TAG_SIZE - 1])


# -- the I/O shims ------------------------------------------------------------------


def test_aio_channels_interoperate_and_enforce_the_allowlist():
    # Socket-free: each channel runs its real handshake driver against the
    # peer's recorded acts, fed one byte at a time.
    pair_i, pair_r = keypair(b"vector-i"), keypair(b"vector-r")
    act_one, act_two, act_three = (bytes.fromhex(act) for act in VECTOR["acts"])

    async def main() -> None:
        dial, accept = honest_pair(pair_i, pair_r, b"vector-")
        dialler = scripted_channel(act_two)
        await dialler.handshake(dial)
        assert dialler.writer.sent == act_one + act_three
        await dialler.send_frame(b"hello over aio")
        # The acceptor reads exactly what the dialler wrote.
        acceptor = scripted_channel(dialler.writer.sent)
        await acceptor.handshake(accept)
        assert acceptor.writer.sent == act_two
        assert acceptor.session.remote_public == pair_i.public
        assert await acceptor.recv_frame() == b"hello over aio"
        assert await acceptor.recv_frame() is None

        # A rogue key completes the handshake crypto but is rejected by the
        # allowlist before any session exists: the channel is left unusable.
        _, accept = honest_pair(
            pair_i, pair_r, b"vector-", authorized=frozenset({keypair(b"other").public})
        )
        acceptor = scripted_channel(act_one + act_three + PLAIN.seal(b"job?"))
        with pytest.raises(HandshakeError, match="unauthorized static key"):
            await acceptor.handshake(accept)
        assert acceptor.session is None

        # A peer that hangs up inside act three hands over a stump.
        _, accept = honest_pair(pair_i, pair_r, b"vector-")
        acceptor = scripted_channel(act_one + act_three[:-1])
        with pytest.raises(HandshakeError, match="act three must be 65 bytes, got 64"):
            await acceptor.handshake(accept)
        assert acceptor.session is None

    asyncio.run(main())


@pytest.mark.parametrize("dialler", ["authorized", "rogue"])
def test_aio_dialler_interoperates_with_aio_acceptor(dialler):
    acceptor_pair = keypair(b"interop-acceptor")
    authorized = keypair(b"interop-dialler")
    dialler_pair = authorized if dialler == "authorized" else keypair(b"interop-rogue")

    async def main():
        received, rejected = [], []
        handled = asyncio.Event()

        async def handle(reader, writer):
            channel = AioChannel(reader, writer)
            try:
                await channel.handshake(
                    handshake(acceptor_pair, authorized=frozenset({authorized.public}))
                )
                await channel.send_frame(b"ack from acceptor")
                received.append(await channel.recv_frame())
            except HandshakeError as error:
                rejected.append((str(error), channel.session))
            finally:
                writer.close()
                handled.set()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        channel = AioChannel(*await asyncio.open_connection("127.0.0.1", port))
        # In XK the initiator finishes first, so even a rogue dialler holds a
        # session; the acceptor's verdict is that it never answers.
        await channel.handshake(
            handshake(dialler_pair, remote_public=acceptor_pair.public)
        )
        reply = await channel.recv_frame()
        if reply is not None:
            await channel.send_frame(b"hello from dialler")
        await asyncio.wait_for(handled.wait(), timeout=10)
        channel.writer.close()
        server.close()
        await server.wait_closed()
        return received, rejected, reply

    received, rejected, reply = asyncio.run(asyncio.wait_for(main(), timeout=30))
    if dialler == "authorized":
        assert (received, rejected, reply) == (
            [b"hello from dialler"],
            [],
            b"ack from acceptor",
        )
    else:
        assert received == [] and reply is None
        [(message, session)] = rejected
        assert "unauthorized static key" in message
        assert session is None
