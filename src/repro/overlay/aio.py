"""Asyncio socket overlay backend: the same transport surface, real TCP.

The discrete-event backend (:class:`~repro.overlay.node.SimulatedOverlayNetwork`)
delivers packets by invoking callbacks on a virtual clock.  This module
implements the *same* transport surface — :meth:`transmit_packets` /
:meth:`transmit_blobs` / :meth:`transmit_blob`, per-node CPU accounting,
keyed event coalescing — over real TCP streams (loopback by default, any
interface via ``bind_host``), so :class:`~repro.overlay.node.SlicingRuntime`
and the onion runtimes in :mod:`repro.baselines.runtime` run unchanged on
either backend.  Each connection is a pair of asyncio protocols that carries
length-prefixed frames, in the format defined below.

One loop; the landing waits
---------------------------
:class:`AioOverlayNetwork` is the simulated substrate
(:class:`~repro.overlay.node.SimulatedOverlayNetwork`) with sockets under
its landings.  A burst is charged with the simulator's arithmetic
(:meth:`~repro.overlay.node.OverlayTransport._account_batch`) and lands as
it does there: a packet batch joins its receiver's inbox when it is sent
(:meth:`EventSimulator.schedule_keyed
<repro.overlay.simulator.EventSimulator.schedule_keyed>`), and a blob
batch's landing is a plain heap event at its last arrival instant.
:meth:`EventSimulator.run <repro.overlay.simulator.EventSimulator.run>` is
the one loop that pops the heap.  What differs is *transport*: the
``_send`` hook really serialises a batch
(:func:`~repro.core.packet.pack_packets`, the packets' wire bytes back to
back in a length-prefixed frame) and queues it for its connection, and the
``_receive`` hook, run inside the landing, parses what the receiving
connection read.  A landing touches the sockets only when it holds a batch
whose frames have not been read yet: it writes every batch submitted since
the last wait, then runs the asyncio loop until those frames are in.  So
every virtual-time field (throughput, setup latency, event counts),
delivered plaintext and relay counter is the simulator's, on any profile.

A failure raises from the landing it concerns.  A batch with a frame over
:data:`MAX_FRAME_BYTES` never leaves, and raises at its own landing once
the landings before it and the batches that share its inbox are
delivered; a stall or a lost connection raises from the landing that
waited; a landing at a dead receiver drops its batches without waiting
for their frames.  See ``docs/ARCHITECTURE.md`` ("Overlay backends").

Wire format
-----------
Every message on a connection is a *frame*: a 4-byte big-endian length
(:data:`FRAME_HEADER`) followed by that many payload bytes, at most
:data:`MAX_FRAME_BYTES`.  A connection opens with a hello frame
(``sender\\x00receiver``), then carries batches: one batch-header frame
(``>QI``: batch id, payload frame count) followed by the batch's payload
frames.  A payload frame holds a whole number of the batch's packets back
to back: for the slicing data plane, their :meth:`Packet.to_bytes
<repro.core.packet.Packet.to_bytes>` wire form, written by
:func:`~repro.core.packet.pack_packets` (a data batch is one ``(n,
packet_size)`` matrix fill) and read back by
:func:`~repro.core.packet.unpack_packets` as setup packets and data batches
whose columns are read-only views into the frame; for the baselines,
length-prefixed opaque cells (:func:`encode_frame` each, read back with the
strict :func:`decode_frames`), so a cell may be at most ``MAX_FRAME_BYTES``
minus its prefix.  A batch is as few payload frames as
:data:`MAX_FRAME_BYTES` allows — one, for every batch the figures send —
split between packets (inside a data batch, between two of its rows, if
need be), and leaves in one ``writelines`` straight to its connection's
transport (:class:`_Outbound`, which queues it while the connection is
dialled); :class:`_Inbound` parses every complete frame as data arrives and
records a batch's payload frames for the heap event that parses them.

Both ends of every connection live in this process, so the sending side's
record of a batch (its connection, payload frame count and item count) is
what the receiving side checks the wire against: an unknown batch id, a
batch id on another connection, a frame or item count that differs from what
was sent, a malformed hello, batch header, packet or cell, and a connection
that closes inside a batch are each rejected with a
:class:`~repro.core.errors.PacketFormatError` naming the connection.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import socket
import struct
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

#: Wall-clock seconds the backend may wait for a batch's frames with no
#: batch read before it declares itself wedged instead of hanging CI.
DEFAULT_STALL_TIMEOUT = 60.0


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
    error: PacketFormatError | None = None  # why it never left, if it did not

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
    return b"".join(map(encode_frame, cells))


def _payload_frames(items: list, sizes: list[int], pack: Callable) -> list[bytes]:
    """``pack`` the items into as few payload frames as the frame bound allows.

    ``sizes`` holds one wire size per packet (or cell).  Frames split between
    packets, inside a data batch if need be, never inside one; a packet over
    the bound on its own is left for :meth:`_Outbound.send` to reject.
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


class _Outbound(asyncio.Protocol):
    """The sending end of one ``(sender, receiver)`` connection.

    :meth:`send` writes straight to the transport; what is sent while the
    connection is still being dialled queues here, in order, and leaves when
    it is made.  A connection lost before the backend closes fails the landing
    that waits.
    """

    def __init__(self, network: "AioOverlayNetwork", link: str) -> None:
        self._network = network
        self._link = link
        self.transport: asyncio.Transport | None = None
        self._queued: list[bytes] = []

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        transport.writelines(self._queued)
        self._queued = []

    def connection_lost(self, exc: Exception | None) -> None:
        if not self._network._closed:
            self._network._fail(exc or ConnectionResetError(f"{self._link}: connection lost"))

    def send(self, payloads: Iterable[bytes]) -> None:
        """Frames back to back (a hello, or a batch), in one ``writelines``; every
        length is checked first, so an oversized frame fails the batch with nothing
        on the wire.  Each payload goes out as it is, after its length prefix."""
        wire: list[bytes] = []
        for payload in payloads:
            wire += (FRAME_HEADER.pack(check_frame_size(len(payload))), payload)
        if self.transport is None:
            self._queued += wire
        else:
            self.transport.writelines(wire)


class _Inbound(asyncio.Protocol):
    """The receiving end of one connection.

    Each :meth:`data_received` parses every complete frame buffered and moves
    the connection through its hello, batch-header and payload-frame states;
    a batch's frames are recorded on it as its last one is read.  A
    rejection fails the landing that waits and drops the connection.
    """

    def __init__(self, network: "AioOverlayNetwork") -> None:
        self._network = network
        self.transport: asyncio.BaseTransport | None = None
        self._buffer = bytearray()
        self._link: str | None = None  # "sender→receiver", once the hello is in
        self._batch: _PendingBatch | None = None  # whose payload frames are arriving
        self._frames: list[bytes] = []

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self._network._inbound.add(self)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        offset, end = 0, len(buffer)
        try:
            with memoryview(buffer) as view:
                while end - offset >= FRAME_HEADER.size:
                    start = offset + FRAME_HEADER.size
                    stop = start + check_frame_size(FRAME_HEADER.unpack_from(view, offset)[0])
                    if stop > end:
                        break
                    offset = stop
                    # An immutable copy, never a view of the buffer: relays
                    # keep received batches by reference.
                    self.frame_received(bytes(view[start:stop]))
        except BaseException as exc:  # noqa: B036 - must not strand the wait
            buffer.clear()
            self._batch = None
            self._network._fail(exc)
            self.transport.abort()
            return
        del buffer[:offset]

    def frame_received(self, frame: bytes) -> None:
        """One whole frame: the hello, a batch header or a payload frame."""
        if self._link is None:
            try:
                sender, receiver = frame.decode("utf-8").split("\x00")
            except ValueError:  # not UTF-8, or not exactly two addresses
                raise PacketFormatError(f"malformed hello frame {frame!r}") from None
            self._link = f"{sender}→{receiver}"
        elif self._batch is None:
            link = self._link
            if len(frame) != BATCH_HEADER.size:
                raise PacketFormatError(
                    f"{link}: batch header of {len(frame)} bytes, expected {BATCH_HEADER.size}"
                )
            batch_id, count = BATCH_HEADER.unpack(frame)
            batch = self._network._pending.pop(batch_id, None)
            if batch is None:
                raise PacketFormatError(f"{link}: unknown batch id {batch_id}")
            if batch.link != link:
                raise PacketFormatError(f"{link}: batch {batch_id} was sent on {batch.link}")
            if count != batch.frame_count:
                raise PacketFormatError(
                    f"{link}: batch {batch_id} announces {count} payload "
                    f"frames, {batch.frame_count} were sent"
                )
            self._batch = batch
        else:
            self._frames.append(frame)
            if len(self._frames) == self._batch.frame_count:
                batch, batch.frames = self._batch, self._frames
                self._batch, self._frames = None, []
                network = self._network
                network._progress_at = network._loop.time()
                if batch is network._awaited:
                    network._wake()

    def connection_lost(self, exc: Exception | None) -> None:
        self._network._inbound.discard(self)
        if self._buffer:
            exc = PacketFormatError("connection closed mid-frame")
        elif self._batch is not None:
            exc = PacketFormatError(
                f"{self._link}: connection closed after {len(self._frames)} of the "
                f"{self._batch.frame_count} frames of batch {self._batch.batch_id}"
            )
        if exc is not None:
            self._network._fail(exc)


# -- the backend --------------------------------------------------------------------


class AioOverlayNetwork(SimulatedOverlayNetwork):
    """The simulated substrate with every batch carried over asyncio TCP streams.

    Parameters
    ----------
    network, connection_bps:
        Same meaning as on the simulated backend; they feed the shared
        virtual-time accounting.  If a landing waits for a batch's frames
        and no batch is read for :data:`DEFAULT_STALL_TIMEOUT` wall-clock
        seconds, it raises instead of hanging.
    bind_host:
        Interface the per-address servers bind and connections dial
        (default ``127.0.0.1``; any resolvable address works — all overlay
        endpoints live in this process, so host and dial address coincide).
    """

    def __init__(
        self,
        network: NetworkModel,
        connection_bps: float,
        bind_host: str = "127.0.0.1",
    ) -> None:
        super().__init__(network, connection_bps)
        self.bind_host = bind_host
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server_tasks: dict[str, asyncio.Task] = {}
        self._links: dict[tuple[str, str], _Outbound] = {}
        self._dials: list[asyncio.Task] = []  # the loop itself holds tasks weakly
        self._inbound: set[_Inbound] = set()
        self._pending: dict[int, _PendingBatch] = {}
        self._outbox: list[tuple[str, str, int, list[bytes]]] = []
        self._awaited: _PendingBatch | None = None  # whose frames _wait waits for
        self._idle: asyncio.Future | None = None  # what _wait waits on
        self._progress_at = 0.0  # loop time of the last batch read
        self._watchdog: asyncio.TimerHandle | None = None
        self._failure: BaseException | None = None
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
        """Frame a charged burst for its connection; its record is what travels."""
        if self._closed:
            raise SimulationError("aio backend is closed")
        if packets:
            frames = _payload_frames(items, sizes, pack_packets)
        else:
            frames = _payload_frames(
                items, [FRAME_HEADER.size + size for size in sizes], _pack_cells
            )
        batch_id = next(self._batch_ids)
        batch = self._pending[batch_id] = _PendingBatch(
            batch_id, packets, sender, receiver, len(frames), len(sizes)
        )
        self._outbox.append((sender, receiver, batch_id, frames))
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
        """Write the outbox, land the batches that left, then fail on one that did not."""
        if self._outbox:
            self._flush_outbox()
        left = [item for item in items if item[0].error is None]
        if left:
            super()._land(receiver, deliver, left)
        if len(left) < len(items):
            raise next(batch.error for batch, _arrivals in items if batch.error is not None)

    # -- waiting ------------------------------------------------------------------

    def drive(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """``sim.run``, then raise a failure a connection recorded; returns the virtual time."""
        now = self.sim.run(until, max_events)
        self._raise_failure()
        return now

    def _wait(self, batch: _PendingBatch) -> None:
        """Write the outbox, then run the loop until ``batch``'s frames are read."""
        self._flush_outbox()
        self._raise_failure()
        loop = self._loop
        self._awaited = batch
        self._idle = loop.create_future()
        self._progress_at = loop.time()
        self._watch()
        try:
            loop.run_until_complete(self._idle)
        finally:
            self._awaited = self._idle = None
            self._watchdog.cancel()
        self._raise_failure()

    def _raise_failure(self) -> None:
        if self._failure is not None:
            failure, self._failure = self._failure, None
            raise failure

    def _watch(self, since: float | None = None) -> None:
        """Fail the wait if no batch was read since ``since``, else re-arm."""
        if since == self._progress_at:
            # Unread: no header read yet, or a header read and frames missing.
            unread = len(self._pending) + sum(conn._batch is not None for conn in self._inbound)
            awaited = self._awaited
            self._fail(SimulationError(
                f"aio backend stalled: {unread} batch(es) in flight made no progress for "
                f"{DEFAULT_STALL_TIMEOUT}s (waiting for batch {awaited.batch_id} on {awaited.link})"
            ))
        else:
            self._watchdog = self._loop.call_at(
                self._progress_at + DEFAULT_STALL_TIMEOUT, self._watch, self._progress_at
            )

    def _wake(self) -> None:
        if self._idle is not None and not self._idle.done():
            self._idle.set_result(None)

    def _fail(self, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = exc
        self._wake()

    # -- sender side --------------------------------------------------------------

    def _flush_outbox(self) -> None:
        """Write every submitted batch to its connection, one ``writelines`` each."""
        loop = self._ensure_loop()
        outbox, self._outbox = self._outbox, []
        for sender, receiver, batch_id, frames in outbox:
            link = self._links.get((sender, receiver))
            if link is None:  # dialled on first use, and its hello goes first
                link = self._links[sender, receiver] = _Outbound(self, f"{sender}→{receiver}")
                link.send([f"{sender}\x00{receiver}".encode()])
                self._dials.append(loop.create_task(self._dial(link, receiver)))
            try:
                link.send([BATCH_HEADER.pack(batch_id, len(frames)), *frames])
            except PacketFormatError as exc:  # an oversized frame fails its batch alone
                self._pending.pop(batch_id).error = exc

    async def _dial(self, link: _Outbound, receiver: str) -> None:
        try:
            # A task, so that dials racing to one receiver share its server.
            server = self._server_tasks.get(receiver)
            if server is None:
                server = self._server_tasks[receiver] = self._loop.create_task(
                    self._loop.create_server(lambda: _Inbound(self), self.bind_host, 0)
                )
            port = (await server).sockets[0].getsockname()[1]
            await self._loop.create_connection(lambda: link, self.bind_host, port)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: B036 - must not strand the wait
            self._fail(exc)

    # -- lifecycle ----------------------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._closed:
            raise SimulationError("aio backend is closed")
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        return self._loop

    def close(self) -> None:
        """Graceful teardown: close every connection, server and the loop."""
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        self._loop = None
        if loop is None or loop.is_closed():
            return
        try:
            loop.run_until_complete(self._shutdown())
        finally:
            loop.close()

    async def _shutdown(self) -> None:
        # A server start never waits on the network: let each one finish, then
        # close it.  Cancel what is left: dials, and accepts already begun.
        started = await asyncio.gather(*self._server_tasks.values(), return_exceptions=True)
        for server in started:
            if isinstance(server, asyncio.Server):
                server.close()
        tasks = asyncio.all_tasks() - {asyncio.current_task()}
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for end in [*self._links.values(), *self._inbound]:
            if end.transport is not None:
                end.transport.abort()
        await asyncio.sleep(0)  # the transports' connection_lost closes their sockets
