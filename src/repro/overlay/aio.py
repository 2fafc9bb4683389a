"""Socket overlay backend: the same transport surface, real TCP.

The discrete-event backend (:class:`~repro.overlay.node.SimulatedOverlayNetwork`)
delivers packets by invoking callbacks on a virtual clock.  This module
implements the *same* transport surface — :meth:`transmit_packets` /
:meth:`transmit_blobs` / :meth:`transmit_blob`, per-node CPU accounting,
keyed event coalescing — over real TCP streams (loopback by default, any
interface via ``bind_host``), so :class:`~repro.overlay.node.SlicingRuntime`
and the onion runtimes in :mod:`repro.baselines.runtime` run unchanged on
either backend.  Each connection is a pair of plain non-blocking sockets
carrying length-prefixed frames, in the format defined below.

One loop; the landing reads
---------------------------
:class:`AioOverlayNetwork` is the simulated substrate with sockets under
its landings.  A burst is charged with the simulator's arithmetic
(:meth:`~repro.overlay.node.OverlayTransport._account_batch`) and lands as
it does there (a packet batch joins its receiver's inbox when it is sent, a
blob batch's landing is a plain heap event), and :meth:`EventSimulator.run
<repro.overlay.simulator.EventSimulator.run>` is the one loop.  What
differs is *transport*: the ``_send`` hook serialises a batch
(:func:`~repro.core.packet.pack_packets`) and queues its frames on its
connection, dialled on first use; the ``_receive`` hook, run inside the
landing, parses them.  A landing whose batch is still unread hands every
connection's queued frames to the kernel (one ``sendmsg`` each), then reads
*that batch's own connection* into its parse buffer, parsing the frames of
earlier batches on it as it goes, until the batch's frames are in; it
blocks in ``poll`` on that connection only when its socket holds nothing.
So every virtual-time field, delivered plaintext and relay counter is the
simulator's, on any profile.

A wait cannot deadlock.  A send never blocks: a full kernel buffer leaves
the rest of a connection's frames queued.  Both ends of every connection
live in this process, and the frames a landing waits for are ahead in its
own connection's stream or in that connection's queue; each read of that
connection makes room in its kernel buffers, which the wait refills from
the queue as the sending end turns writable.  So every round of the wait
moves bytes toward the reader, until the frames are in or the connection
is found broken.

A failure raises from the landing it concerns: a batch with a frame over
:data:`MAX_FRAME_BYTES` is never queued and raises at its own landing,
after the batches that share its inbox are delivered; a rejected frame, a
stall or a lost connection raises from the landing that waited; a landing
at a dead receiver drops its batches without reading them.  See
``docs/ARCHITECTURE.md`` ("Overlay backends").

Wire format
-----------
Every message on a connection is a *frame*: a 4-byte big-endian length
(:data:`FRAME_HEADER`) followed by that many payload bytes, at most
:data:`MAX_FRAME_BYTES`.  A connection opens with a hello frame
(``sender\\x00receiver``), then carries batches: one batch-header frame
(``>QI``: batch id, payload frame count) followed by the batch's payload
frames.  A payload frame holds a whole number of the batch's packets back
to back: for the slicing data plane, their :meth:`Packet.to_bytes
<repro.core.packet.Packet.to_bytes>` wire form (a data batch is one ``(n,
packet_size)`` matrix fill), read back by
:func:`~repro.core.packet.unpack_packets` as setup packets and data batches
whose columns are read-only views into the frame; for the baselines,
length-prefixed opaque cells (read back with the strict
:func:`decode_frames`), so a cell may be at most ``MAX_FRAME_BYTES`` minus
its prefix.  A batch is as few payload frames as the bound allows — one,
for every batch the figures send — split between packets (inside a data
batch, between two of its rows, if need be).  A frame is queued as its
length prefix and its payload, uncopied; its one copy on the way is the
immutable ``bytes`` the reader cuts from its parse buffer, which relays
keep by reference.

Both ends of every connection live in this process, so the sending side's
record of a batch (its connection, payload frame count and item count) is
what the receiving side checks the wire against: an unknown batch id, a
batch id on another connection, a frame or item count that differs from what
was sent, a malformed hello, batch header, packet or cell, and a connection
that closes inside a frame or a batch are each rejected with a
:class:`~repro.core.errors.PacketFormatError` naming the connection.
"""

from __future__ import annotations

import itertools
import os
import select
import socket
import struct
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..core.errors import PacketFormatError, SimulationError
from ..core.packet import pack_packets, packet_count, split_items, unpack_packets
from .network import NetworkModel
from .node import SimulatedOverlayNetwork

#: Length prefix of every frame on the wire.
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame's payload; anything larger is a protocol
#: error (slicing packets are a few KiB even at large split factors).
MAX_FRAME_BYTES = 1 << 22

#: Batch header payload: (batch id, number of payload frames that follow).
BATCH_HEADER = struct.Struct(">QI")

#: Wall-clock seconds a landing may wait for its batch's frames with no
#: byte read before it declares the backend wedged instead of hanging CI.
DEFAULT_STALL_TIMEOUT = 60.0

#: Bytes of a connection's parse buffer; it grows for a larger frame only
#: while that frame is read.
_READ_BUFFER = 1 << 16

#: Most buffers one ``sendmsg`` takes (``IOV_MAX`` on Linux and macOS).
_IOV_MAX = 1024


def environment_settings() -> dict:
    """The backend's environment knob as constructor kwargs, checked.

    ``REPRO_AIO_HOST`` becomes ``bind_host``; unset or empty, it is left
    out.  A host that does not resolve raises
    :class:`~repro.core.errors.SimulationError` with a one-line message, so
    a run request can reject it before any trial runs.
    """
    host = os.environ.get("REPRO_AIO_HOST")
    if not host:
        return {}
    try:
        socket.getaddrinfo(host, None)
    except socket.gaierror as error:
        raise SimulationError(
            f"REPRO_AIO_HOST: cannot resolve host {host!r} ({error})"
        ) from None
    return {"bind_host": host}


# -- frames -------------------------------------------------------------------------


def check_frame_size(size: int) -> int:
    """Return ``size`` if a frame may carry it."""
    if size > MAX_FRAME_BYTES:
        raise PacketFormatError(
            f"frame of {size} bytes is over the {MAX_FRAME_BYTES}-byte limit"
        )
    return size


def encode_frame(payload: bytes) -> bytes:
    """Length-prefix ``payload`` for the wire."""
    return FRAME_HEADER.pack(check_frame_size(len(payload))) + payload


def decode_frames(data: bytes) -> list[bytes]:
    """Split a byte string into exact frames; reject truncated or oversized ones.

    The buffer must contain a whole number of well-formed frames: a payload
    frame of opaque cells is read back this way.
    """
    frames: list[bytes] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < FRAME_HEADER.size:
            raise PacketFormatError("truncated frame header")
        (length,) = FRAME_HEADER.unpack_from(data, offset)
        check_frame_size(length)
        offset += FRAME_HEADER.size
        if total - offset < length:
            raise PacketFormatError("truncated frame payload")
        frames.append(data[offset : offset + length])
        offset += length
    return frames


def _wire(payloads: Iterable[bytes]) -> list[bytes]:
    """Each payload, as it is, after its length prefix; every length is checked first."""
    wire: list[bytes] = []
    for payload in payloads:
        wire += (FRAME_HEADER.pack(check_frame_size(len(payload))), payload)
    return wire


# -- batches ------------------------------------------------------------------------


@dataclass(eq=False)
class _PendingBatch:
    """Sender-side record of a batch in flight: what travels from its send to its landing."""

    batch_id: int
    packets: bool  # packets, else opaque cells
    sender: str
    receiver: str
    frame_count: int  # payload frames the batch left as
    count: int  # packets (or cells) it was sent with
    frames: list[bytes] | None = None  # its payload frames, once read
    error: PacketFormatError | None = None  # why it was never queued, if it was not

    @property
    def link(self) -> str:
        return f"{self.sender}→{self.receiver}"

    def parse(self, frames: list[bytes]) -> list:
        """The batch's items back from its payload frames, one per packet sent."""
        try:
            if self.packets:
                items = [
                    item
                    for frame in frames
                    for item in unpack_packets(frame, self.sender, self.receiver)
                ]
            else:
                items = [cell for frame in frames for cell in decode_frames(frame)]
        except PacketFormatError as exc:
            raise PacketFormatError(f"{self.link}: {exc}") from exc
        count = sum(map(packet_count, items))
        if count != self.count:
            raise PacketFormatError(
                f"{self.link}: batch {self.batch_id} carried {count} items, "
                f"{self.count} were sent"
            )
        return items


def _pack_cells(cells: list[bytes]) -> bytes:
    """Opaque cells as one payload frame: each after its length prefix."""
    return b"".join([piece for cell in cells for piece in (FRAME_HEADER.pack(len(cell)), cell)])


def _payload_frames(items: list, sizes: list[int], pack: Callable) -> list[bytes]:
    """``pack`` the items into as few payload frames as the frame bound allows.

    ``sizes`` holds one wire size per packet (or cell).  Frames split between
    packets, inside a data batch if need be, never inside one; a packet over
    the bound on its own is left for :meth:`AioOverlayNetwork._send` to reject.
    """
    if sum(sizes) <= MAX_FRAME_BYTES:
        return [pack(items)]
    cuts, used = [0], 0
    for index, size in enumerate(sizes):
        if used + size > MAX_FRAME_BYTES and index > cuts[-1]:
            cuts.append(index)
            used = 0
        used += size
    return [pack(piece) for piece in split_items(items, cuts[1:])]


# -- connections --------------------------------------------------------------------


class _Connection:
    """Both ends of one ``(sender, receiver)`` connection: the sending end's
    queue of frames, and the receiving end's parse buffer and frame states.
    ``pending`` holds the backend's batches sent and not yet announced on the wire."""

    def __init__(self, outbound: socket.socket, inbound: socket.socket, pending: dict) -> None:
        self.outbound = outbound
        self.inbound = inbound
        self.pending = pending
        self.queue: list = []  # frames not yet handed to the kernel, pieces for sendmsg
        self.buffer = bytearray(_READ_BUFFER)
        self.view = memoryview(self.buffer)
        self.end = 0  # the unparsed bytes are buffer[:end]
        self.hello: str | None = None  # "sender→receiver", as the hello names it
        self.batch: _PendingBatch | None = None  # whose payload frames are arriving
        self.frames: list[bytes] = []
        self.failure: PacketFormatError | None = None  # a rejection, raised on every read after

    def push(self) -> bool:
        """Hand the queued frames to the kernel in one ``sendmsg``; True if some stay queued."""
        queue = self.queue
        if not queue:
            return False
        try:
            sent = self.outbound.sendmsg(queue[:_IOV_MAX] if len(queue) > _IOV_MAX else queue)
        except BlockingIOError:
            return True
        for index, piece in enumerate(queue):
            sent -= len(piece)
            if sent < 0:  # the unsent tail of this piece, and what follows it, stay
                del queue[:index]
                queue[0] = memoryview(piece)[len(piece) + sent :]
                return True
        queue.clear()
        return False

    def receive(self) -> int | None:
        """Read what the socket holds into the parse buffer and parse every whole frame.

        Returns the bytes read, ``None`` if there were none, 0 at an end of
        stream between batches.  An end inside a frame or a batch raises; a
        rejected frame raises, and again on every later call.
        """
        if self.failure is not None:
            raise self.failure
        end = self.end
        try:
            read = self.inbound.recv_into(self.view[end:])
        except BlockingIOError:
            return None
        if not read:
            if end:
                raise PacketFormatError("connection closed mid-frame")
            if self.batch is not None:
                raise PacketFormatError(
                    f"{self.hello}: connection closed after {len(self.frames)} of the "
                    f"{self.batch.frame_count} frames of batch {self.batch.batch_id}"
                )
            return 0
        end += read
        view, offset = self.view, 0
        try:
            while end - offset >= FRAME_HEADER.size:
                start = offset + FRAME_HEADER.size
                stop = start + check_frame_size(FRAME_HEADER.unpack_from(view, offset)[0])
                if stop > end:
                    break
                offset = stop
                # An immutable copy, never a view of the buffer: relays keep
                # received batches by reference.
                self.frame_received(bytes(view[start:stop]))
        except PacketFormatError as exc:
            self.failure = exc
            raise
        # Keep a partial frame at the front of a buffer it fits whole: the
        # buffer grows for a frame over _READ_BUFFER and shrinks after it.
        rest = end - offset
        need = _READ_BUFFER
        if rest >= FRAME_HEADER.size:
            need = max(need, FRAME_HEADER.size + FRAME_HEADER.unpack_from(view, offset)[0])
        if need != len(self.buffer):
            buffer = bytearray(need)
            buffer[:rest] = view[offset:end]
            view.release()
            self.buffer, self.view = buffer, memoryview(buffer)
        elif offset:
            view[:rest] = view[offset:end]
        self.end = rest
        return read

    def frame_received(self, frame: bytes) -> None:
        """One whole frame: the hello, a batch header or a payload frame."""
        if self.hello is None:
            try:
                sender, receiver = frame.decode("utf-8").split("\x00")
            except ValueError:  # not UTF-8, or not exactly two addresses
                raise PacketFormatError(f"malformed hello frame {frame!r}") from None
            self.hello = f"{sender}→{receiver}"
        elif self.batch is None:
            link = self.hello
            if len(frame) != BATCH_HEADER.size:
                raise PacketFormatError(
                    f"{link}: batch header of {len(frame)} bytes, expected {BATCH_HEADER.size}"
                )
            batch_id, count = BATCH_HEADER.unpack(frame)
            batch = self.pending.pop(batch_id, None)
            if batch is None:
                raise PacketFormatError(f"{link}: unknown batch id {batch_id}")
            if batch.link != link:
                raise PacketFormatError(f"{link}: batch {batch_id} was sent on {batch.link}")
            if count != batch.frame_count:
                raise PacketFormatError(
                    f"{link}: batch {batch_id} announces {count} payload "
                    f"frames, {batch.frame_count} were sent"
                )
            self.batch = batch
        else:
            frames = self.frames
            frames.append(frame)
            if len(frames) == self.batch.frame_count:
                self.batch.frames = frames
                self.batch, self.frames = None, []

    def close(self) -> None:
        self.outbound.close()
        self.inbound.close()
        self.view.release()


# -- the backend --------------------------------------------------------------------


class AioOverlayNetwork(SimulatedOverlayNetwork):
    """The simulated substrate with every batch carried over TCP sockets.

    Parameters
    ----------
    network, connection_bps:
        Same meaning as on the simulated backend; they feed the shared
        virtual-time accounting.  If a landing waits for its batch's frames
        and no byte is read for :data:`DEFAULT_STALL_TIMEOUT` wall-clock
        seconds, it raises instead of hanging.
    bind_host:
        Interface the per-receiver listeners bind and connections dial
        (default ``127.0.0.1``; any resolvable address works — all overlay
        endpoints live in this process, so host and dial address coincide).
        It is resolved once, here, to the first ``getaddrinfo`` result.
    """

    def __init__(
        self,
        network: NetworkModel,
        connection_bps: float,
        bind_host: str = "127.0.0.1",
    ) -> None:
        super().__init__(network, connection_bps)
        self.bind_host = bind_host
        # Resolved once: every listener binds this family and address.
        self._family, _type, _proto, _name, self._address = socket.getaddrinfo(
            bind_host, 0, type=socket.SOCK_STREAM
        )[0]
        self._listeners: dict[str, socket.socket] = {}
        self._links: dict[tuple[str, str], _Connection] = {}
        self._pending: dict[int, _PendingBatch] = {}
        self._outbox: dict[_Connection, None] = {}  # connections with frames queued
        self._batch_ids = itertools.count(1)
        self._closed = False

    # The benchmark's tracer (perfbench/spans.py) wraps these names on this
    # class, so they stay bound here; they are the simulator's own.
    transmit_packets = SimulatedOverlayNetwork.transmit_packets
    transmit_blobs = SimulatedOverlayNetwork.transmit_blobs
    transmit_blob = SimulatedOverlayNetwork.transmit_blob

    # -- carrying a batch -------------------------------------------------------------

    def _send(
        self, sender: str, receiver: str, items: list, sizes: list[int], packets: bool
    ) -> _PendingBatch:
        """Frame a charged burst and queue it on its connection; its record is what
        travels.  A batch with a frame over the bound gets its ``error``, unqueued."""
        if self._closed:
            raise SimulationError("aio backend is closed")
        if packets:
            frames = _payload_frames(items, sizes, pack_packets)
        else:
            frames = _payload_frames(
                items, [FRAME_HEADER.size + size for size in sizes], _pack_cells
            )
        batch_id = next(self._batch_ids)
        batch = _PendingBatch(batch_id, packets, sender, receiver, len(frames), len(sizes))
        try:
            wire = _wire([BATCH_HEADER.pack(batch_id, len(frames)), *frames])
        except PacketFormatError as exc:  # an oversized frame fails its batch alone
            batch.error = exc
            return batch
        connection = self._links.get((sender, receiver)) or self._dial(sender, receiver)
        connection.queue += wire
        self._outbox[connection] = None
        self._pending[batch_id] = batch
        return batch

    def _receive(self, batch: _PendingBatch) -> list:
        """The batch's items, parsed off the wire; waits for its frames if unread."""
        if batch.frames is None:
            self._wait(batch)
        return batch.parse(batch.frames)

    def _land(
        self,
        receiver: str,
        deliver: Callable[[list, list[float]], None],
        items: list[tuple[_PendingBatch, list[float]]],
    ) -> None:
        """Land the batches that were queued, then fail on one that was not."""
        left = [item for item in items if item[0].error is None]
        if left:
            super()._land(receiver, deliver, left)
        if len(left) < len(items):
            raise next(batch.error for batch, _arrivals in items if batch.error is not None)

    # -- waiting ------------------------------------------------------------------

    def drive(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """``sim.run``: a landing raises what went wrong on its connection; returns the virtual time."""
        return self.sim.run(until, max_events)

    def _wait(self, batch: _PendingBatch) -> None:
        """Push the outbox, then read ``batch``'s connection until its frames are in.

        A read is progress; :data:`DEFAULT_STALL_TIMEOUT` seconds without one raise.
        """
        if self._closed:
            raise SimulationError("aio backend is closed")
        outbox = self._outbox
        for connection in list(outbox):
            if not connection.push():
                del outbox[connection]
        connection = self._links[batch.sender, batch.receiver]
        progress = time.monotonic()
        while batch.frames is None:
            if connection.queue:
                connection.push()
            read = connection.receive()
            if read:
                progress = time.monotonic()
                continue
            if read == 0:
                raise ConnectionResetError(f"{batch.link}: connection lost")
            left = progress + DEFAULT_STALL_TIMEOUT - time.monotonic()
            if left <= 0:
                # Unread: no header read yet, or a header read and frames missing.
                unread = len(self._pending) + sum(
                    link.batch is not None for link in self._links.values()
                )
                raise SimulationError(
                    f"aio backend stalled: {unread} batch(es) in flight made no progress for "
                    f"{DEFAULT_STALL_TIMEOUT}s (waiting for batch {batch.batch_id} on {batch.link})"
                )
            poller = select.poll()
            poller.register(connection.inbound, select.POLLIN)
            if connection.queue:
                poller.register(connection.outbound, select.POLLOUT)
            poller.poll(left * 1000)

    # -- connections --------------------------------------------------------------

    def _dial(self, sender: str, receiver: str) -> _Connection:
        """Connect ``sender`` to ``receiver``'s listener, synchronously; the hello goes first."""
        listener = self._listeners.get(receiver)
        if listener is None:
            listener = self._listeners[receiver] = socket.create_server(
                self._address, family=self._family
            )
        outbound = socket.socket(self._family, socket.SOCK_STREAM)
        try:
            # The listener's own numeric address: no name lookup per dial.
            outbound.connect(listener.getsockname())
            inbound, peer = listener.accept()
            while peer != outbound.getsockname():  # not a connection of this backend
                inbound.close()
                inbound, peer = listener.accept()
        except BaseException:
            outbound.close()
            raise
        outbound.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        outbound.setblocking(False)
        inbound.setblocking(False)
        connection = self._links[sender, receiver] = _Connection(outbound, inbound, self._pending)
        connection.queue.append(encode_frame(f"{sender}\x00{receiver}".encode()))
        return connection

    def close(self) -> None:
        """Close every connection's sockets and every listener."""
        if self._closed:
            return
        self._closed = True
        for connection in self._links.values():
            connection.close()
        for listener in self._listeners.values():
            listener.close()
        self._links.clear()
        self._listeners.clear()
        self._outbox.clear()
