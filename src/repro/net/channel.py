"""The I/O shim: a session's bytes over an asyncio stream pair.

Everything that decides *what* goes on the wire is sans-I/O — the frame
format and the plain session in :mod:`repro.net.framing`, the secure session
and the :func:`~repro.net.secure.handshake` generator in
:mod:`repro.net.secure`.  :class:`AioChannel`, the aio overlay's connection,
only moves those bytes.  A channel starts with the plain session;
``handshake(steps)`` drives a handshake generator over the connection and
adopts the session it returns (a failed handshake leaves the channel with
none).  Either way ``send_frame(payload)`` / ``recv_frame() -> bytes |
None`` look the same from above, which is what keeps parity artifacts
byte-identical across ``plain`` and ``secure`` runs.

A peer that closes mid-handshake hands the generator a short act, which it
rejects with :class:`~repro.core.errors.HandshakeError`; a peer that closes
mid-frame raises :class:`~repro.core.errors.PacketFormatError`; a clean
close between frames reads as ``None``.
"""

from __future__ import annotations

import asyncio
from typing import Generator, Iterable

from ..core.errors import PacketFormatError
from .framing import PLAIN


class AioChannel:
    """Frames over an asyncio stream pair."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        session=PLAIN,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.session = session

    async def _read(self, size: int) -> bytes:
        """Read ``size`` bytes; fewer only if the peer closed first."""
        try:
            return await self.reader.readexactly(size)
        except asyncio.IncompleteReadError as exc:
            return exc.partial

    async def handshake(self, steps: Generator) -> None:
        """Run a handshake generator over the streams; adopt its session."""
        self.session = None  # a failed handshake leaves no usable channel
        reply = None
        try:
            while True:
                step = steps.send(reply)
                reply = None
                if isinstance(step, int):
                    reply = await self._read(step)
                else:
                    self.writer.write(step)
                    await self.writer.drain()
        except StopIteration as done:
            self.session = done.value

    async def send_frame(self, payload: bytes) -> None:
        await self.send_frames((payload,))

    async def send_frames(self, payloads: Iterable[bytes]) -> None:
        """Send frames back to back (an overlay batch) in one write."""
        # Seal and hand to the transport with no await in between, so nonce
        # order always matches wire order even when several coroutines send
        # on the same channel, and a batch stays contiguous on the wire.
        self.writer.writelines([self.session.seal(payload) for payload in payloads])
        await self.writer.drain()

    async def recv_frame(self) -> bytes | None:
        session = self.session
        header = None
        try:
            header = await self.reader.readexactly(session.header_size)
            body = await self.reader.readexactly(session.body_size(header))
        except asyncio.IncompleteReadError as exc:
            if header is None and not exc.partial:
                return None
            raise PacketFormatError("connection closed mid-frame") from None
        return session.open(body)
