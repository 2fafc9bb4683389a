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

How the two clocks relate
-------------------------
There is one clock, and the backend runs the simulator's event order.  A
burst is accounted with the simulator's arithmetic
(:meth:`~repro.overlay.node.OverlayTransport._account_batch`) and lands as
it does there: a packet batch joins its receiver's inbox when it is sent
(:meth:`EventSimulator.schedule_keyed
<repro.overlay.simulator.EventSimulator.schedule_keyed>`, one heap event
per receiver and instant, after the instant's plain events), and a blob
batch's landing is a plain heap event at its last arrival instant.
:meth:`AioOverlayNetwork.drive` runs the heap as :meth:`EventSimulator.run
<repro.overlay.simulator.EventSimulator.run>` does.  What differs is
*transport*: a batch really is serialised
(:func:`~repro.core.packet.pack_packets`, the packets' wire bytes back to
back in a length-prefixed frame) and really crosses a socket, and the
inbox or landing parses what the receiving connection read.  The drain
touches the sockets only when the next event is an inbox or a landing that
holds a batch whose frames have not been read yet: it writes every batch
submitted since the last wait, then waits.  So every virtual-time field
(throughput, setup latency, event counts), delivered plaintext and relay
counter is the simulator's, on any profile.  See ``docs/ARCHITECTURE.md``
("Overlay backends").

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
from typing import Callable, Iterable, Sequence

from ..core.errors import PacketFormatError, SimulationError
from ..core.packet import (
    AnyPacket,
    pack_packets,
    packet_count,
    split_items,
    unpack_packets,
    wire_sizes,
)
from .network import NetworkModel
from .node import OverlayTransport
from .simulator import EventHandle, EventSimulator, _KeyedBatch

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


# -- the virtual clock --------------------------------------------------------------


class AioClock(EventSimulator):
    """The simulator's scheduling surface, drained by the asyncio backend.

    ``schedule`` / ``schedule_at`` / ``schedule_keyed`` behave exactly as on
    :class:`~repro.overlay.simulator.EventSimulator` (same heap, same
    deterministic tie-breaking); only :meth:`run` differs — it hands control
    to the owning :class:`AioOverlayNetwork`, which waits on the sockets
    before an event that would parse a batch whose frames are not read yet.
    """

    def __init__(self, substrate: "AioOverlayNetwork") -> None:
        super().__init__()
        self._substrate = substrate

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        return self._substrate.drive(until=until, max_events=max_events)


@dataclass(eq=False)
class _PendingBatch:
    """Sender-side record of a batch in flight.

    A packet batch is an item of its receiver's inbox; calling a blob batch
    is its landing.
    """

    network: "AioOverlayNetwork"
    batch_id: int
    kind: str  # "packets" | "blobs"
    sender: str
    receiver: str
    frame_count: int  # payload frames the batch left as
    deliver: Callable[[list, list[float]], None]
    arrivals: list[float]  # one per item
    frames: list[bytes] | None = None  # its payload frames, once read
    landing: EventHandle | _KeyedBatch | None = None  # its landing, or its inbox

    @property
    def link(self) -> str:
        return f"{self.sender}→{self.receiver}"

    def __call__(self) -> None:
        """A blob batch's landing: parse and deliver, or drop the batch at a dead receiver."""
        if self.network.is_alive(self.receiver):
            self.deliver(self.parse(self.frames), self.arrivals)
        else:
            self.network.stats.packets_dropped += len(self.arrivals)

    def parse(self, frames: list[bytes]) -> list:
        """The batch's items back from its payload frames, one per arrival."""
        try:
            if self.kind == "packets":
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
        if count != len(self.arrivals):
            raise PacketFormatError(
                f"{self.link}: batch {self.batch_id} carried {count} items, "
                f"{len(self.arrivals)} were sent"
            )
        return items


def _unread(event: Callable[[], None]) -> _PendingBatch | None:
    """The first batch whose frames are unread that a heap event would parse."""
    if type(event) is _PendingBatch:
        return event if event.frames is None else None
    if type(event) is _KeyedBatch:
        for batch in event.items:
            if type(batch) is _PendingBatch and batch.frames is None:
                return batch
    return None


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
    it is made.  A connection lost before the backend closes fails its drain.
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
    rejection fails the backend's drain and drops the connection.
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
        except BaseException as exc:  # noqa: B036 - must not strand the drain
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


class AioOverlayNetwork(OverlayTransport):
    """Overlay transport over asyncio TCP streams on localhost.

    Parameters
    ----------
    network, connection_bps:
        Same meaning as on the simulated backend; they feed the shared
        virtual-time accounting.  If :meth:`drive` waits for a batch's
        frames and no batch is read for :data:`DEFAULT_STALL_TIMEOUT`
        wall-clock seconds, it raises instead of hanging.
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
        self.sim = AioClock(self)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server_tasks: dict[str, asyncio.Task] = {}
        self._links: dict[tuple[str, str], _Outbound] = {}
        self._dials: list[asyncio.Task] = []  # the loop itself holds tasks weakly
        self._inbound: set[_Inbound] = set()
        self._pending: dict[int, _PendingBatch] = {}
        self._outbox: list[tuple[str, str, int, list[bytes]]] = []
        self._awaited: _PendingBatch | None = None  # whose frames _receive waits for
        self._idle: asyncio.Future | None = None  # what _receive waits on
        self._progress_at = 0.0  # loop time of the last batch read
        self._watchdog: asyncio.TimerHandle | None = None
        self._failure: BaseException | None = None
        self._batch_ids = itertools.count(1)
        self._closed = False

    # -- payload-carrying transmit surface ----------------------------------------

    def transmit_packets(
        self,
        sender: str,
        receiver: str,
        packets: list[AnyPacket],
        deliver: Callable[[list[AnyPacket], list[float]], None],
        sender_cpu_seconds: Sequence[float] | None = None,
    ) -> None:
        self._submit(
            sender,
            receiver,
            packets,
            wire_sizes(packets),
            sender_cpu_seconds,
            kind="packets",
            deliver=deliver,
        )

    def transmit_blobs(
        self,
        sender: str,
        receiver: str,
        blobs: list[bytes],
        deliver: Callable[[list[bytes], list[float]], None],
        sender_cpu_seconds: Sequence[float] | None = None,
    ) -> None:
        self._submit(
            sender,
            receiver,
            blobs,
            [len(blob) for blob in blobs],
            sender_cpu_seconds,
            kind="blobs",
            deliver=deliver,
        )

    def transmit_blob(
        self,
        sender: str,
        receiver: str,
        blob: bytes,
        deliver: Callable[[bytes], None],
        sender_cpu_seconds: float = 0.0,
    ) -> None:
        self._submit(
            sender,
            receiver,
            [blob],
            [len(blob)],
            [sender_cpu_seconds],
            kind="blobs",
            deliver=lambda blobs, _arrivals: deliver(blobs[0]),
        )

    def _submit(
        self,
        sender: str,
        receiver: str,
        items: list,
        sizes: list[int],
        sender_cpu_seconds: Sequence[float] | None,
        kind: str,
        deliver: Callable,
    ) -> None:
        if self._closed:
            raise SimulationError("aio backend is closed")
        arrivals = self._charge(sender, receiver, sizes, sender_cpu_seconds)
        if arrivals is None:
            return
        if kind == "packets":
            frames = _payload_frames(items, sizes, pack_packets)
        else:
            frames = _payload_frames(
                items, [FRAME_HEADER.size + size for size in sizes], _pack_cells
            )
        batch_id = next(self._batch_ids)
        batch = self._pending[batch_id] = _PendingBatch(
            self, batch_id, kind, sender, receiver, len(frames), deliver, arrivals
        )
        if kind == "packets":
            inbox = self._inbox(receiver, deliver)
            batch.landing = self.sim.schedule_keyed(inbox, arrivals[-1], batch, inbox)
        else:
            batch.landing = self.sim.schedule_at(arrivals[-1], batch)
        self._outbox.append((sender, receiver, batch_id, frames))

    def _land(
        self,
        receiver: str,
        deliver: Callable[[list[AnyPacket], list[float]], None],
        batches: list[_PendingBatch],
    ) -> None:
        """An inbox: parse its batches and deliver them, or drop them at a dead receiver."""
        if not batches:  # every batch in it was rejected
            return
        if not self.is_alive(receiver):
            self.stats.packets_dropped += sum(len(batch.arrivals) for batch in batches)
            return
        packets: list[AnyPacket] = []
        arrivals: list[float] = []
        for batch in batches:
            packets += batch.parse(batch.frames)
            arrivals += batch.arrivals
        deliver(packets, arrivals)

    # -- driving ------------------------------------------------------------------

    def drive(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Run the heap in virtual order, as the simulator does; returns the virtual time.

        This is what ``substrate.sim.run()`` resolves to on this backend.
        Before an inbox or landing that holds a batch whose frames are not
        read yet, every batch submitted since the last wait is written and
        the drain waits on the sockets until that batch's frames are in.
        """
        loop = self._ensure_loop()
        if loop.is_running():
            raise SimulationError("drive() re-entered from within the event loop")
        return loop.run_until_complete(self._drain(until, max_events))

    async def _drain(self, until: float | None, max_events: int) -> float:
        clock = self.sim
        processed = 0
        while (event := clock.peek(until)) is not None:
            # An inbox or landing is popped only once its frames are read, so
            # a failure raised while waiting leaves it queued.
            unread = _unread(event)
            if unread is not None:
                await self._receive(unread)
                continue
            clock.now, callback = clock.pop_due(until, max_events - processed)
            processed += 1
            clock.events_processed += 1
            callback()
        self._raise_failure()
        if until is not None:
            clock.now = max(clock.now, until)
        return clock.now

    async def _receive(self, batch: _PendingBatch) -> None:
        """Write the outbox, then wait until ``batch``'s frames are read."""
        self._flush_outbox()
        self._raise_failure()
        self._awaited = batch
        self._idle = self._loop.create_future()
        self._progress_at = self._loop.time()
        self._watch()
        try:
            await self._idle
        finally:
            self._awaited = self._idle = None
            self._watchdog.cancel()
        self._raise_failure()

    def _raise_failure(self) -> None:
        if self._failure is not None:
            failure, self._failure = self._failure, None
            raise failure

    def _watch(self, since: float | None = None) -> None:
        """Fail the drain if no batch was read since ``since``, else re-arm."""
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
        outbox, self._outbox = self._outbox, []
        for sender, receiver, batch_id, frames in outbox:
            link = self._links.get((sender, receiver))
            if link is None:  # dialled on first use, and its hello goes first
                link = self._links[sender, receiver] = _Outbound(self, f"{sender}→{receiver}")
                link.send([f"{sender}\x00{receiver}".encode()])
                self._dials.append(self._loop.create_task(self._dial(link, receiver)))
            try:
                link.send([BATCH_HEADER.pack(batch_id, len(frames)), *frames])
            except PacketFormatError as exc:  # an oversized frame fails its batch alone
                batch = self._pending.pop(batch_id)
                if batch.kind == "packets":  # it leaves its inbox
                    batch.landing.items.remove(batch)
                else:
                    batch.landing.cancel()
                self._fail(exc)

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
        except BaseException as exc:  # noqa: B036 - must not strand the drain
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
