"""Asyncio socket overlay backend: the same transport surface, real TCP.

The discrete-event backend (:class:`~repro.overlay.node.SimulatedOverlayNetwork`)
delivers packets by invoking callbacks on a virtual clock.  This module
implements the *same* transport surface — :meth:`transmit_packets` /
:meth:`transmit_blobs` / :meth:`transmit_blob`, per-node CPU accounting,
keyed event coalescing — over real TCP streams (loopback by default, any
interface via ``bind_host``), so :class:`~repro.overlay.node.SlicingRuntime`
and the onion runtimes in :mod:`repro.baselines.runtime` run unchanged on
either backend.  Each connection is an asyncio stream pair that carries
length-prefixed frames, in the format defined below.

How the two clocks relate
-------------------------
Virtual time still exists here: every burst is accounted with the exact
arithmetic of the simulator (sender CPU queue, per-connection FIFO
serialisation, propagation delay — see
:meth:`~repro.overlay.node.OverlayTransport._account_batch`), and the
resulting virtual arrival instants ride along with the frames.  What changes
is *transport and scheduling*: batches really are serialised
(:func:`~repro.core.packet.pack_packets`, the packets' wire bytes back to
back in a length-prefixed frame), really cross a socket, and are parsed back
on the receiving side, whose relay engines are driven from that address's own
asyncio reader task.

Timer events (CPU completions, flush timeouts) are kept on a virtual-time
heap and fired in virtual order whenever the data plane is *quiescent* (no
frame in flight, nothing unread).  On profiles where the simulator's flush
timers fire after the transfer has settled — the LAN figures — this makes
delivered plaintexts and relay counters bit-identical to the simulator;
wall-clock-dependent timing fields are not comparable by value.  See
``docs/ARCHITECTURE.md`` ("Overlay backends") for the exact contract.

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
need be), and leaves in one ``writelines`` of its frames
(:func:`send_frames`); :func:`recv_frame` reads one frame back.

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
from .simulator import EventSimulator

#: Length prefix of every frame on the wire.
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame's payload; anything larger is a protocol
#: error (slicing packets are a few KiB even at large split factors).
MAX_FRAME_BYTES = 1 << 22

#: Batch header payload: (batch id, number of payload frames that follow).
BATCH_HEADER = struct.Struct(">QI")

#: Wall-clock seconds the backend may sit non-quiescent with no delivery
#: progress before it declares itself wedged instead of hanging CI.
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


async def send_frames(writer: asyncio.StreamWriter, payloads: Iterable[bytes]) -> None:
    """Send frames back to back (a hello, or a batch) in one write."""
    # Encode every frame before writing any, so an oversized one fails the
    # batch with nothing on the wire; one writelines keeps the batch
    # contiguous even when several coroutines send on the same connection.
    writer.writelines([encode_frame(payload) for payload in payloads])
    await writer.drain()


async def recv_frame(reader: asyncio.StreamReader) -> bytes | None:
    """The next frame's payload; ``None`` on a clean close between frames."""
    header = None
    try:
        header = await reader.readexactly(FRAME_HEADER.size)
        return await reader.readexactly(check_frame_size(FRAME_HEADER.unpack(header)[0]))
    except asyncio.IncompleteReadError as exc:
        if header is None and not exc.partial:
            return None
        raise PacketFormatError("connection closed mid-frame") from None


# -- the virtual clock --------------------------------------------------------------


class AioClock(EventSimulator):
    """The simulator's scheduling surface, drained by the asyncio backend.

    ``schedule`` / ``schedule_at`` / ``schedule_keyed`` behave exactly as on
    :class:`~repro.overlay.simulator.EventSimulator` (same heap, same
    deterministic tie-breaking); only :meth:`run` differs — it hands control
    to the owning :class:`AioOverlayNetwork`, which interleaves heap events
    with real socket traffic.
    """

    def __init__(self, substrate: "AioOverlayNetwork") -> None:
        super().__init__()
        self._substrate = substrate

    def advance(self, time: float) -> None:
        """Move the virtual clock forward (never backwards)."""
        if time > self.now:
            self.now = time

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        return self._substrate.drive(until=until, max_events=max_events)


@dataclass
class _PendingBatch:
    """Sender-side record of a batch in flight, resolved when frames land."""

    batch_id: int
    kind: str  # "packets" | "blobs"
    sender: str
    receiver: str
    frame_count: int  # payload frames the batch left as
    deliver: Callable[[list, list[float]], None]
    arrivals: list[float]  # one per item

    @property
    def link(self) -> str:
        return f"{self.sender}→{self.receiver}"

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


def _pack_cells(cells: list[bytes]) -> bytes:
    return b"".join(map(encode_frame, cells))


def _payload_frames(items: list, sizes: list[int], pack: Callable) -> list[bytes]:
    """``pack`` the items into as few payload frames as the frame bound allows.

    ``sizes`` holds one wire size per packet (or cell).  Frames split between
    packets, inside a data batch if need be, never inside one; a packet over
    the bound on its own is left for :func:`send_frames` to reject.
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


# -- the backend --------------------------------------------------------------------


class AioOverlayNetwork(OverlayTransport):
    """Overlay transport over asyncio TCP streams on localhost.

    Parameters
    ----------
    network, connection_bps:
        Same meaning as on the simulated backend; they feed the shared
        virtual-time accounting.  Batches are delivered as fast as the
        sockets allow; if the data plane makes no progress for
        :data:`DEFAULT_STALL_TIMEOUT` wall-clock seconds while work is
        outstanding, :meth:`drive` raises instead of hanging.
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
        self._writer_tasks: dict[tuple[str, str], asyncio.Task] = {}
        self._send_tasks: set[asyncio.Task] = set()
        self._handler_tasks: set[asyncio.Task] = set()
        self._handler_writers: set[asyncio.StreamWriter] = set()
        self._pending: dict[int, _PendingBatch] = {}
        self._outbox: list[tuple[str, str, int, list[bytes]]] = []
        self._inflight = 0
        self._idle = asyncio.Event()
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
        sizes = wire_sizes(packets)
        self._submit(
            sender,
            receiver,
            packets,
            sizes,
            self._normalise_cpus(len(sizes), sender_cpu_seconds),
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
            self._normalise_cpus(len(blobs), sender_cpu_seconds),
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
        cpus: list[float],
        kind: str,
        deliver: Callable,
    ) -> None:
        if self._closed:
            raise SimulationError("aio backend is closed")
        if not items:
            return
        if not self.is_alive(sender):
            self.stats.packets_dropped += len(sizes)
            return
        arrivals = self._account_batch(sender, receiver, sizes, cpus)
        if kind == "packets":
            frames = _payload_frames(items, sizes, pack_packets)
        else:
            frames = _payload_frames(
                items, [FRAME_HEADER.size + size for size in sizes], _pack_cells
            )
        batch_id = next(self._batch_ids)
        self._pending[batch_id] = _PendingBatch(
            batch_id=batch_id,
            kind=kind,
            sender=sender,
            receiver=receiver,
            frame_count=len(frames),
            deliver=deliver,
            arrivals=arrivals,
        )
        self._outbox.append((sender, receiver, batch_id, frames))
        self._inflight += 1

    # -- driving ------------------------------------------------------------------

    def drive(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Drain the data plane and the timer heap; returns the virtual time.

        This is what ``substrate.sim.run()`` resolves to on this backend:
        socket traffic is pumped until quiescent, then the earliest pending
        timer (CPU completion, flush timeout) fires in virtual order, and the
        cycle repeats until nothing is left.
        """
        loop = self._ensure_loop()
        if loop.is_running():
            raise SimulationError("drive() re-entered from within the event loop")
        return loop.run_until_complete(self._drain(until, max_events))

    async def _drain(self, until: float | None, max_events: int) -> float:
        clock = self.sim
        processed = 0
        while True:
            await self._quiesce()
            event = clock.pop_due(until, max_events - processed)
            if event is None:
                break
            processed += 1
            time, callback = event
            clock.advance(time)
            clock.events_processed += 1
            callback()
        if until is not None:
            clock.advance(until)
        return clock.now

    async def _quiesce(self) -> None:
        """Wait until no frame is in flight and nothing is queued to send."""
        while True:
            if self._failure is not None:
                failure, self._failure = self._failure, None
                raise failure
            if self._outbox:
                self._flush_outbox()
            if self._inflight == 0 and not self._outbox:
                return
            self._idle.clear()
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=DEFAULT_STALL_TIMEOUT)
            except asyncio.TimeoutError:
                raise SimulationError(
                    f"aio backend stalled: {self._inflight} batch(es) in flight made "
                    f"no progress for {DEFAULT_STALL_TIMEOUT}s"
                ) from None

    def _flush_outbox(self) -> None:
        outbox, self._outbox = self._outbox, []
        for sender, receiver, batch_id, frames in outbox:
            task = self._loop.create_task(
                self._send_batch(sender, receiver, batch_id, frames)
            )
            self._send_tasks.add(task)
            task.add_done_callback(self._send_tasks.discard)

    # -- sender side --------------------------------------------------------------

    async def _send_batch(
        self, sender: str, receiver: str, batch_id: int, frames: list[bytes]
    ) -> None:
        try:
            writer = await self._connection(sender, receiver)
            await send_frames(writer, [BATCH_HEADER.pack(batch_id, len(frames)), *frames])
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: B036 - must not strand _quiesce
            self._fail(exc)

    async def _connection(self, sender: str, receiver: str) -> asyncio.StreamWriter:
        key = (sender, receiver)
        task = self._writer_tasks.get(key)
        if task is None:
            # Memoised as a task so concurrent batches for a new connection
            # share one dial; TCP then keeps per-connection FIFO order, like
            # the simulator's per-connection link queue.
            task = self._loop.create_task(self._open_connection(sender, receiver))
            self._writer_tasks[key] = task
        return await task

    async def _open_connection(self, sender: str, receiver: str) -> asyncio.StreamWriter:
        """Dial ``receiver``'s server and say hello."""
        server = await self._ensure_server(receiver)
        port = server.sockets[0].getsockname()[1]
        _reader, writer = await asyncio.open_connection(self.bind_host, port)
        await send_frames(writer, [f"{sender}\x00{receiver}".encode()])
        return writer

    async def _ensure_server(self, address: str):
        # Memoised as a task (like _connection): two senders dialling the
        # same receiver concurrently must share one listening server, not
        # race start_server and leak the loser.
        task = self._server_tasks.get(address)
        if task is None:
            task = self._loop.create_task(
                asyncio.start_server(
                    self._handle_connection, host=self.bind_host, port=0
                )
            )
            self._server_tasks[address] = task
        return await task

    # -- receiver side ------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One relay-side task per inbound connection: parse frames, deliver."""
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        self._handler_writers.add(writer)
        try:
            hello = await recv_frame(reader)
            if hello is None:
                return
            try:
                sender, receiver = hello.decode("utf-8").split("\x00")
            except ValueError:  # not UTF-8, or not exactly two addresses
                raise PacketFormatError(f"malformed hello frame {hello!r}") from None
            link = f"{sender}→{receiver}"
            while True:
                header = await recv_frame(reader)
                if header is None:
                    break
                if len(header) != BATCH_HEADER.size:
                    raise PacketFormatError(
                        f"{link}: batch header of {len(header)} bytes, "
                        f"expected {BATCH_HEADER.size}"
                    )
                batch_id, count = BATCH_HEADER.unpack(header)
                batch = self._pending.pop(batch_id, None)
                if batch is None:
                    raise PacketFormatError(f"{link}: unknown batch id {batch_id}")
                if batch.link != link:
                    raise PacketFormatError(
                        f"{link}: batch {batch_id} was sent on {batch.link}"
                    )
                if count != batch.frame_count:
                    raise PacketFormatError(
                        f"{link}: batch {batch_id} announces {count} payload "
                        f"frames, {batch.frame_count} were sent"
                    )
                frames = []
                for _ in range(count):
                    frame = await recv_frame(reader)
                    if frame is None:
                        raise PacketFormatError(
                            f"{link}: connection closed after {len(frames)} of "
                            f"the {count} frames of batch {batch_id}"
                        )
                    frames.append(frame)
                self._deliver_batch(frames, batch)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: B036 - must not strand _quiesce
            self._fail(exc)
        finally:
            self._handler_writers.discard(writer)
            writer.close()

    def _deliver_batch(self, frames: list[bytes], batch: _PendingBatch) -> None:
        try:
            # The virtual clock reaches the arrival instant whether or not
            # the receiver is still alive — exactly like the simulator,
            # whose deliver event advances `now` before the is_alive check.
            self.sim.advance(batch.arrivals[-1])
            if not self.is_alive(batch.receiver):
                self.stats.packets_dropped += len(batch.arrivals)
            else:
                batch.deliver(batch.parse(frames), batch.arrivals)
        finally:
            self._inflight -= 1
            if self._outbox:
                # The delivery callback transmitted; keep the plane moving.
                self._flush_outbox()
            if self._inflight == 0 and not self._outbox:
                self._idle.set()

    def _fail(self, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = exc
        self._idle.set()

    # -- lifecycle ----------------------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._closed:
            raise SimulationError("aio backend is closed")
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        return self._loop

    def close(self) -> None:
        """Graceful teardown: close every stream, server and the loop."""
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
        cancelled: list[asyncio.Task] = []
        for task in list(self._send_tasks):
            task.cancel()
            cancelled.append(task)
        writers: list[asyncio.StreamWriter] = []
        for task in self._writer_tasks.values():
            if task.done() and not task.cancelled() and task.exception() is None:
                writers.append(task.result())
            else:
                task.cancel()
                cancelled.append(task)
        self._writer_tasks.clear()
        for writer in writers:
            writer.close()
        for writer in writers:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        servers = []
        for task in self._server_tasks.values():
            if task.done() and not task.cancelled() and task.exception() is None:
                servers.append(task.result())
            else:
                task.cancel()
                cancelled.append(task)
        self._server_tasks.clear()
        if cancelled:
            # Deliver the CancelledErrors now; the loop closes right after
            # _shutdown returns and must not see pending tasks.
            await asyncio.gather(*cancelled, return_exceptions=True)
        for server in servers:
            server.close()
        for server in servers:
            await server.wait_closed()
        # The per-connection reader tasks park in recv_frame(); closing
        # their transports wakes them with a clean EOF so they finish
        # normally before the loop closes.  Cancellation is a last resort
        # (a handler wedged inside a delivery callback).
        for handler_writer in list(self._handler_writers):
            handler_writer.close()
        handlers = [task for task in self._handler_tasks if not task.done()]
        if handlers:
            _done, pending = await asyncio.wait(handlers, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        self._handler_tasks.clear()
        self._handler_writers.clear()
        self._pending.clear()
        self._outbox.clear()
        self._inflight = 0
