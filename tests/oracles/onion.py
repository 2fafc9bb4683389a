"""The per-cell reference for onion data cells: one stream-cipher pass per hop.

The source encrypts each message once per hop, innermost hop first; each
relay decrypts its one layer.  The shipped ``wrap_cells`` / ``strip_cells``
do the same for a whole burst with one combined keystream read at the
burst's longest cell.
"""

from __future__ import annotations

from repro.baselines.onion import _NONCE, OnionCircuit, OnionRelay
from repro.crypto.symmetric import StreamCipher


def wrap_data(circuit: OnionCircuit, message: bytes) -> bytes:
    cell = bytes(message)
    for session_key in reversed(circuit.session_keys):
        cell = StreamCipher(session_key).encrypt(cell, _NONCE)
    return cell


def handle_data(relay: OnionRelay, handle: int, cell: bytes) -> tuple[str, bytes]:
    session_key, next_hop = relay._session(handle)
    return next_hop, StreamCipher(session_key).decrypt(cell, _NONCE)
