"""The per-cell reference for Sphinx data cells: one stream-cipher pass per hop.

The source pads a message into one :data:`~repro.baselines.sphinx.DATA_CELL_SIZE`
cell and encrypts it once per hop, innermost hop first; each relay decrypts
its one layer.  The shipped ``wrap_cells`` / ``strip_cells`` do the same for
a whole burst with one combined keystream.
"""

from __future__ import annotations

from repro.baselines.sphinx import _NONCE, SphinxCircuit, SphinxRelay, pack_cell
from repro.crypto.symmetric import StreamCipher


def wrap_data(circuit: SphinxCircuit, message: bytes) -> bytes:
    cell = pack_cell(message)
    for session_key in reversed(circuit.session_keys):
        cell = StreamCipher(session_key).encrypt(cell, _NONCE)
    return cell


def handle_data(relay: SphinxRelay, handle: int, cell: bytes) -> tuple[str, bytes]:
    session_key, next_hop = relay._session(handle)
    return next_hop, StreamCipher(session_key).decrypt(cell, _NONCE)
