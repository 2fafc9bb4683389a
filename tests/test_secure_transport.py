"""Enumerated, property and end-to-end tests for the authenticated transport.

The whole wire layer is sans-I/O — the handshake is a generator, a session
is a byte-in/byte-out object — so almost everything here runs in memory with
injected entropy: a lock-step driver plays the initiator and responder
generators against each other and *enumerates* the ways a handshake can be
attacked (every truncation of every act, swapped and replayed acts, wrong
and unauthorized keys); a scripted socket feeds the real shims one byte at a
time.  One test crosses real sockets (a sync worker against an asyncio
acceptor), and the end-to-end tests assert the load-bearing guarantee of the
whole stack: a ``--transport secure`` distributed run merges to an artifact
byte-identical to the single-process plaintext run, while a tampered frame
or an unauthorized static key is rejected before any job frame is processed.
"""

import asyncio
import hashlib
import itertools
import socket
import threading
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    FrameAuthenticationError,
    HandshakeError,
    KeyFileError,
    PacketFormatError,
)
from repro.experiments import run_distributed, run_experiment, run_worker
from repro.experiments.__main__ import main as experiments_main
from repro.net import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    PLAIN,
    AioChannel,
    StaticKeyPair,
    SyncChannel,
    TransportCredential,
    handshake,
    load_allowlist,
    load_keypair,
    load_public_key,
    write_keypair,
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

SMALL = 0.03
#: fig11 at the CI smoke scale: one short transfer per path length.
FIG11_SMOKE = 0.02


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


class ScriptedSocket:
    """An in-memory socket: scripted bytes out one at a time, then EOF."""

    def __init__(self, incoming: bytes = b"") -> None:
        self.incoming = incoming
        self.sent = b""

    def recv(self, size: int) -> bytes:
        chunk, self.incoming = self.incoming[:1], self.incoming[1:]
        return chunk

    def sendall(self, data: bytes) -> None:
        self.sent += data


def read_frames(session, wire: bytes) -> list[bytes]:
    """Every frame in ``wire``, read through the real sync shim byte by byte."""
    channel = SyncChannel(ScriptedSocket(wire), session)
    return list(iter(channel.recv_frame, None))


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


def test_sync_adapters_interoperate_and_enforce_the_allowlist():
    # Socket-free: each sync shim runs its real handshake driver against the
    # peer's recorded acts, fed one byte at a time.
    pair_i, pair_r = keypair(b"vector-i"), keypair(b"vector-r")
    act_one, act_two, act_three = (bytes.fromhex(act) for act in VECTOR["acts"])
    dial, accept = honest_pair(pair_i, pair_r, b"vector-")
    worker = SyncChannel(ScriptedSocket(act_two))
    worker.handshake(dial)
    assert worker.sock.sent == act_one + act_three
    coordinator = SyncChannel(ScriptedSocket(act_one + act_three))
    coordinator.handshake(accept)
    assert coordinator.sock.sent == act_two
    assert coordinator.session.remote_public == pair_i.public
    worker.send_frame(b"hello over sync")
    coordinator.sock.incoming = worker.sock.sent[len(act_one + act_three) :]
    assert coordinator.recv_frame() == b"hello over sync"
    assert coordinator.recv_frame() is None

    # A rogue key completes the handshake crypto but is rejected by the
    # allowlist before any session exists: the channel is left unusable.
    _, accept = honest_pair(
        pair_i, pair_r, b"vector-", authorized=frozenset({keypair(b"other").public})
    )
    coordinator = SyncChannel(ScriptedSocket(act_one + act_three + PLAIN.seal(b"job?")))
    with pytest.raises(HandshakeError, match="unauthorized static key"):
        coordinator.handshake(accept)
    assert coordinator.session is None

    # A peer that hangs up inside act three hands over a stump.
    _, accept = honest_pair(pair_i, pair_r, b"vector-")
    coordinator = SyncChannel(ScriptedSocket(act_one + act_three[:-1]))
    with pytest.raises(HandshakeError, match="act three must be 65 bytes, got 64"):
        coordinator.handshake(accept)
    assert coordinator.session is None


def test_sync_worker_interoperates_with_aio_acceptor():
    coordinator = keypair(b"interop-coordinator")
    worker = keypair(b"interop-worker")

    async def main():
        loop = asyncio.get_running_loop()
        received = []

        async def handle(reader, writer):
            channel = AioChannel(reader, writer)
            await channel.handshake(
                handshake(coordinator, authorized=frozenset({worker.public}))
            )
            received.append(await channel.recv_frame())
            await channel.send_frame(b"ack from aio")
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]

        def sync_client():
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                channel = SyncChannel(sock)
                channel.handshake(handshake(worker, remote_public=coordinator.public))
                channel.send_frame(b"hello from sync")
                return channel.recv_frame()

        reply = await loop.run_in_executor(None, sync_client)
        server.close()
        await server.wait_closed()
        return received, reply

    received, reply = asyncio.run(main())
    assert received == [b"hello from sync"]
    assert reply == b"ack from aio"


# -- key files ----------------------------------------------------------------------


def test_keypair_files_round_trip_and_refuse_overwrite(tmp_path):
    path = tmp_path / "node.key"
    pair = write_keypair(path)
    assert path.stat().st_mode & 0o777 == 0o600
    assert load_keypair(path) == pair
    assert load_public_key(tmp_path / "node.key.pub") == pair.public
    with pytest.raises(KeyFileError, match="refusing to overwrite"):
        write_keypair(path)


def test_allowlist_parses_comments_and_rejects_empty(tmp_path):
    pair_a = keypair(b"allow-a")
    pair_b = keypair(b"allow-b")
    allowlist = tmp_path / "authorized"
    allowlist.write_text(
        "# fleet workers\n"
        f"{pair_a.public.hex()}\n"
        "\n"
        f"  {pair_b.public.hex()}  # rack 2\n",
        encoding="utf-8",
    )
    assert load_allowlist(allowlist) == frozenset({pair_a.public, pair_b.public})
    empty = tmp_path / "empty"
    empty.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(KeyFileError, match="no keys"):
        load_allowlist(empty)


def test_ephemeral_credential_trusts_only_itself():
    credential = TransportCredential.ephemeral()
    assert credential.is_authorized(credential.keypair.public)
    other = keypair(b"someone else")
    assert not credential.is_authorized(other.public)


# -- end to end through the distributed substrate -----------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _fleet_credentials():
    coordinator = keypair(b"e2e-coordinator")
    worker = keypair(b"e2e-worker")
    return (
        TransportCredential(
            keypair=coordinator, authorized=frozenset({worker.public})
        ),
        TransportCredential(keypair=worker, remote_public=coordinator.public),
    )


def test_secure_distributed_run_matches_plaintext_single_process_bytes(tmp_path):
    single = run_experiment("fig16", scale=SMALL, out_dir=tmp_path / "single")
    coordinator_cred, worker_cred = _fleet_credentials()
    port = _free_port()
    exit_codes = []
    threads = [
        threading.Thread(
            target=lambda rank=rank: exit_codes.append(
                run_worker(
                    host="127.0.0.1",
                    port=port,
                    label=f"s{rank}",
                    transport="secure",
                    credential=worker_cred,
                )
            ),
            daemon=True,
        )
        for rank in range(2)
    ]
    for thread in threads:
        thread.start()
    result = run_distributed(
        "fig16",
        scale=SMALL,
        out_dir=tmp_path / "secure",
        port=port,
        min_workers=2,
        timeout=120,
        transport="secure",
        credential=coordinator_cred,
    )
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert exit_codes == [0, 0]
    assert result.transport == "secure"
    assert result.workers_seen == 2
    assert (tmp_path / "secure" / "fig16.json").read_bytes() == (
        tmp_path / "single" / "fig16.json"
    ).read_bytes()


def test_unauthorized_worker_is_rejected_before_any_job_frame(tmp_path):
    coordinator_cred, worker_cred = _fleet_credentials()
    rogue_cred = TransportCredential(
        keypair=keypair(b"e2e-rogue"),
        remote_public=coordinator_cred.keypair.public,
    )
    port = _free_port()
    rogue_codes = []
    rogue = threading.Thread(
        target=lambda: rogue_codes.append(
            run_worker(
                host="127.0.0.1",
                port=port,
                label="rogue",
                transport="secure",
                credential=rogue_cred,
                log=lambda message: None,
            )
        ),
        daemon=True,
    )
    good = threading.Thread(
        target=run_worker,
        kwargs={
            "host": "127.0.0.1",
            "port": port,
            "label": "good",
            "transport": "secure",
            "credential": worker_cred,
        },
        daemon=True,
    )
    rogue.start()
    good.start()
    result = run_distributed(
        "fig16",
        scale=SMALL,
        out_dir=tmp_path / "out",
        port=port,
        min_workers=1,
        timeout=120,
        transport="secure",
        credential=coordinator_cred,
    )
    rogue.join(timeout=30)
    good.join(timeout=30)
    # The rogue never joined the job: only the allowlisted worker was seen,
    # and the rogue's run_worker exited non-zero at the handshake.
    assert result.workers_seen == 1
    assert rogue_codes == [1]


def test_plain_worker_cannot_join_a_secure_coordinator(tmp_path):
    # A plaintext hello against the secure acceptor dies at the handshake
    # layer (its bytes are not a valid act one), before the protocol runs.
    coordinator_cred, worker_cred = _fleet_credentials()
    port = _free_port()
    plain_codes = []
    plain = threading.Thread(
        target=lambda: plain_codes.append(
            run_worker(
                host="127.0.0.1",
                port=port,
                label="plain",
                connect_timeout=5,
                log=lambda message: None,
            )
        ),
        daemon=True,
    )
    good = threading.Thread(
        target=run_worker,
        kwargs={
            "host": "127.0.0.1",
            "port": port,
            "label": "good",
            "transport": "secure",
            "credential": worker_cred,
        },
        daemon=True,
    )
    plain.start()
    good.start()
    result = run_distributed(
        "fig16",
        scale=SMALL,
        out_dir=tmp_path / "out",
        port=port,
        min_workers=1,
        timeout=120,
        transport="secure",
        credential=coordinator_cred,
    )
    plain.join(timeout=30)
    good.join(timeout=30)
    assert result.workers_seen == 1
    assert plain_codes == [1]


def test_run_distributed_validates_secure_arguments(tmp_path):
    with pytest.raises(ValueError, match="transport"):
        run_distributed("fig16", scale=SMALL, transport="carrier-pigeon")
    with pytest.raises(ValueError, match="TransportCredential"):
        run_distributed(
            "fig16", scale=SMALL, transport="secure", workers=0, min_workers=1
        )


# -- CLI validation -----------------------------------------------------------------


def test_cli_worker_rejects_unresolvable_host(capsys):
    assert (
        experiments_main(
            ["worker", "--host", "no-such-host.invalid", "--port", "47613"]
        )
        == 2
    )
    assert "cannot resolve host" in capsys.readouterr().err


def test_cli_rejects_bad_ports(capsys):
    assert experiments_main(["worker", "--port", "0"]) == 2
    assert "not 0" in capsys.readouterr().err
    assert experiments_main(["worker", "--port", "70000"]) == 2
    assert "outside the valid range" in capsys.readouterr().err
    assert experiments_main(["coordinate", "fig16", "--port", "80"]) == 2
    assert "privileged" in capsys.readouterr().err


def test_cli_secure_transport_requires_key_files(capsys):
    assert experiments_main(["worker", "--port", "47613", "--transport", "secure"]) == 2
    assert "--keyfile" in capsys.readouterr().err
    assert (
        experiments_main(
            ["coordinate", "fig16", "--port", "47613", "--transport", "secure"]
        )
        == 2
    )
    assert "--keyfile" in capsys.readouterr().err


def test_cli_secure_transport_requires_companion_flags(tmp_path, capsys):
    keyfile = tmp_path / "w.key"
    write_keypair(keyfile)
    assert (
        experiments_main(
            [
                "worker",
                "--port",
                "47613",
                "--transport",
                "secure",
                "--keyfile",
                str(keyfile),
            ]
        )
        == 2
    )
    assert "--coordinator-key" in capsys.readouterr().err
    assert (
        experiments_main(
            [
                "coordinate",
                "fig16",
                "--port",
                "47613",
                "--transport",
                "secure",
                "--keyfile",
                str(keyfile),
            ]
        )
        == 2
    )
    assert "--authorized-keys" in capsys.readouterr().err


def test_cli_key_flags_require_secure_transport(tmp_path, capsys):
    keyfile = tmp_path / "w.key"
    write_keypair(keyfile)
    assert (
        experiments_main(
            ["worker", "--port", "47613", "--keyfile", str(keyfile)]
        )
        == 2
    )
    assert "require --transport secure" in capsys.readouterr().err


def test_cli_run_transport_requires_dist(capsys):
    assert experiments_main(["run", "fig16", "--transport", "secure"]) == 2
    assert "--dist" in capsys.readouterr().err


def test_cli_keygen_writes_and_refuses_overwrite(tmp_path, capsys):
    path = tmp_path / "fleet.key"
    assert experiments_main(["keygen", str(path)]) == 0
    output = capsys.readouterr().out
    assert "public hex" in output
    assert load_keypair(path).public == load_public_key(tmp_path / "fleet.key.pub")
    assert experiments_main(["keygen", str(path)]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, scale", [("fig16", SMALL), ("fig11", FIG11_SMOKE)], ids=["fig16", "fig11"]
)
def test_cli_secure_dist_round_trip(tmp_path, capsys, name, scale):
    # `run --dist N --transport secure` provisions throwaway keys for its
    # spawned workers and still merges byte-identically: the exact fig16,
    # and fig11, whose trials drive real overlay transfers.
    single = tmp_path / "single"
    dist = tmp_path / "dist"
    assert (
        experiments_main(["run", name, "--scale", str(scale), "--out", str(single)])
        == 0
    )
    assert (
        experiments_main(
            [
                "run",
                name,
                "--scale",
                str(scale),
                "--out",
                str(dist),
                "--dist",
                "2",
                "--transport",
                "secure",
            ]
        )
        == 0
    )
    assert "dist-workers=2" in capsys.readouterr().out
    assert (dist / f"{name}.json").read_bytes() == (single / f"{name}.json").read_bytes()
