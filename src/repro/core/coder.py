"""Message slicing, coding, and decoding (§4.1, §4.3.2, §4.4).

The :class:`SliceCoder` turns an arbitrary byte string into ``d'`` coded
*blocks*, each tagged with the coefficient row that produced it.  Any ``d``
blocks with linearly independent rows suffice to reconstruct the message;
fewer reveal nothing (pi-security, Lemma 5.1).

Pipeline (encode):

1. pad the message to a multiple of ``d`` and prefix its true length;
2. reshape into a ``d x k`` matrix ``M`` over GF(2^8) — row ``i`` is message
   piece ``m_i``;
3. multiply by the ``d' x d`` coding matrix: ``C = A' @ M``;
4. emit ``d'`` :class:`CodedBlock` objects, block ``i`` carrying row ``A'_i``
   and coded payload ``C_i``.

Decoding stacks any ``d`` independent rows into a square matrix, inverts it,
recovers ``M``, strips the length prefix and padding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CodingError, InsufficientSlicesError
from .gf import GF, GF256
from .matrix import cauchy_matrix, random_invertible_matrix

#: Number of bytes used to prefix the plaintext with its length.
_LENGTH_PREFIX = 4


@dataclass(frozen=True, slots=True)
class CodedBlock:
    """One coded slice of a message: a coefficient row plus the coded payload.

    ``coefficients`` has length ``d`` (the split factor used at encode time);
    ``payload`` is the coded byte block.  ``index`` records which row of the
    coding matrix produced this block — it is informational only and not
    required for decoding.
    """

    coefficients: np.ndarray
    payload: np.ndarray
    index: int = -1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, dtype=np.uint8).reshape(-1)
        )
        object.__setattr__(
            self, "payload", np.asarray(self.payload, dtype=np.uint8).reshape(-1)
        )

    @property
    def d(self) -> int:
        """Split factor this block was coded with."""
        return int(self.coefficients.shape[0])

    def to_bytes(self) -> bytes:
        """Serialize as ``d`` coefficient bytes followed by the payload."""
        return bytes(self.coefficients.tobytes()) + bytes(self.payload.tobytes())

    @classmethod
    def from_bytes(cls, data: bytes, d: int, index: int = -1) -> "CodedBlock":
        """Parse a block serialized by :meth:`to_bytes` given the split factor."""
        if len(data) < d:
            raise CodingError(
                f"coded block too short: {len(data)} bytes for split factor {d}"
            )
        coefficients = np.frombuffer(data[:d], dtype=np.uint8)
        payload = np.frombuffer(data[d:], dtype=np.uint8)
        return cls(coefficients=coefficients, payload=payload, index=index)

    def size_bytes(self) -> int:
        """Total serialized size in bytes."""
        return self.coefficients.size + self.payload.size


def _pad_message(message: bytes, d: int) -> np.ndarray:
    """Length-prefix and zero-pad ``message`` so it reshapes into ``d`` rows."""
    prefixed = struct.pack(">I", len(message)) + message
    remainder = len(prefixed) % d
    if remainder:
        prefixed += b"\x00" * (d - remainder)
    return np.frombuffer(prefixed, dtype=np.uint8).reshape(d, -1, order="C")


def _pad_messages(messages: list[bytes], d: int) -> np.ndarray:
    """Batched :func:`_pad_message`: equal-length messages to a ``(B, d, k)`` stack."""
    batch = len(messages)
    length = len(messages[0])
    prefixed_len = _LENGTH_PREFIX + length
    padded_len = prefixed_len + (-prefixed_len % d)
    buf = np.zeros((batch, padded_len), dtype=np.uint8)
    buf[:, :_LENGTH_PREFIX] = np.frombuffer(struct.pack(">I", length), dtype=np.uint8)
    if length:
        stacked = np.frombuffer(b"".join(messages), dtype=np.uint8)
        buf[:, _LENGTH_PREFIX:prefixed_len] = stacked.reshape(batch, length)
    return buf.reshape(batch, d, -1)


def _unpad_message(matrix: np.ndarray) -> bytes:
    """Invert :func:`_pad_message`."""
    flat = matrix.reshape(-1, order="C").tobytes()
    if len(flat) < _LENGTH_PREFIX:
        raise CodingError("decoded data shorter than the length prefix")
    (length,) = struct.unpack(">I", flat[:_LENGTH_PREFIX])
    body = flat[_LENGTH_PREFIX:]
    if length > len(body):
        raise CodingError(
            f"decoded length prefix {length} exceeds available payload {len(body)}"
        )
    return body[:length]


class SliceCoder:
    """Encode and decode messages as random linear combinations over GF(2^8).

    Parameters
    ----------
    d:
        Split factor — the number of independent pieces the message is chopped
        into.  Any ``d`` coded blocks reconstruct the message.
    d_prime:
        Total number of coded blocks emitted (``d_prime >= d``).  The extra
        ``d_prime - d`` blocks are redundancy against churn (§4.4).  Defaults
        to ``d`` (no redundancy).
    field:
        Finite field implementation.  Defaults to the shared
        :data:`~repro.core.gf.GF`.
    """

    def __init__(
        self,
        d: int,
        d_prime: int | None = None,
        field: GF256 | None = None,
    ) -> None:
        if d < 1:
            raise CodingError(f"split factor d must be >= 1, got {d}")
        d_prime = d if d_prime is None else d_prime
        if d_prime < d:
            raise CodingError(f"d' ({d_prime}) must be >= d ({d})")
        self.d = d
        self.d_prime = d_prime
        self.field = GF if field is None else field

    # -- encoding ----------------------------------------------------------------

    def generate_matrix(self, rng: np.random.Generator) -> np.ndarray:
        """Sample a fresh coding matrix of shape ``(d', d)``.

        With no redundancy this is a uniformly random invertible matrix (the
        matrix ``A`` of Eq. 3); with redundancy it is an MDS matrix whose
        every ``d``-row subset is invertible (the matrix ``A'`` of Eq. 4).
        """
        if self.d_prime == self.d:
            return random_invertible_matrix(self.d, rng, field=self.field)
        return self._scaled_cauchy(1, rng)[0]

    @cached_property
    def _cauchy(self) -> np.ndarray:
        """The ``(d', d)`` Cauchy base every redundant coding matrix scales."""
        return cauchy_matrix(self.d_prime, self.d, field=self.field)

    def _scaled_cauchy(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` draws of ``mds_matrix(d', d, rng)``, scaled in two multiplies.

        Scales are drawn per matrix, rows then columns: numpy buffers bounded
        ``uint8`` draws within one call, so one ``(count, d' + d)`` draw would
        shift the stream.
        """
        rows = np.empty((count, self.d_prime, 1), dtype=np.uint8)
        cols = np.empty((count, 1, self.d), dtype=np.uint8)
        for index in range(count):
            rows[index, :, 0] = self.field.random_nonzero_elements(self.d_prime, rng)
            cols[index, 0] = self.field.random_nonzero_elements(self.d, rng)
        return self.field.multiply(self.field.multiply(self._cauchy, rows), cols)

    def generate_matrices(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``count`` fresh coding matrices as a ``(count, d', d)`` stack.

        The square (no-redundancy) case samples all candidates at once and
        keeps the invertible ones via the batched elimination kernel, so the
        rejection loop runs a constant number of numpy passes instead of one
        rank computation per matrix.
        """
        if count < 0:
            raise CodingError(f"matrix count must be >= 0, got {count}")
        if count == 0:
            return np.empty((0, self.d_prime, self.d), dtype=np.uint8)
        if self.d_prime != self.d:
            return self._scaled_cauchy(count, rng)
        matrices = np.empty((count, self.d, self.d), dtype=np.uint8)
        missing = np.ones(count, dtype=bool)
        for _ in range(64):
            slots = np.flatnonzero(missing)
            if slots.size == 0:
                return matrices
            candidates = self.field.random_elements((slots.size, self.d, self.d), rng)
            accepted = self.field.invertible_mask(candidates)
            matrices[slots[accepted]] = candidates[accepted]
            missing[slots[accepted]] = False
        raise CodingError(
            "failed to sample invertible coding matrices (should be unreachable)"
        )

    def encode(
        self, message: bytes, rng: np.random.Generator, matrix: np.ndarray | None = None
    ) -> list[CodedBlock]:
        """Encode ``message`` into ``d'`` coded blocks.

        A coding matrix is sampled unless ``matrix`` is supplied (it must then
        have shape ``(d', d)``).
        """
        if matrix is None:
            matrix = self.generate_matrix(rng)
        matrix = np.asarray(matrix, dtype=np.uint8)
        if matrix.shape != (self.d_prime, self.d):
            raise CodingError(
                f"coding matrix shape {matrix.shape} does not match "
                f"(d'={self.d_prime}, d={self.d})"
            )
        pieces = _pad_message(bytes(message), self.d)
        coded = self.field.matmul(matrix, pieces)
        return [
            CodedBlock(coefficients=matrix[i], payload=coded[i], index=i)
            for i in range(self.d_prime)
        ]

    def encode_batch(
        self,
        messages: list[bytes],
        rng: np.random.Generator,
        matrices: np.ndarray | None = None,
    ) -> list[list[CodedBlock]]:
        """Encode a batch of equal-length messages in one 3-D coding pass.

        Semantically identical to calling :meth:`encode` once per message —
        each message still gets its own independent coding matrix — but the
        padding, matrix sampling and GF(2^8) multiply all run as single
        batched numpy kernels (:meth:`encode_stacks`).  ``matrices`` may supply
        a pre-sampled ``(batch, d', d)`` stack (or one shared ``(d', d)`` matrix).
        """
        matrices, coded = self.encode_stacks(messages, rng, matrices)
        return [
            [
                CodedBlock(coefficients=matrices[b, i], payload=coded[b, i], index=i)
                for i in range(self.d_prime)
            ]
            for b in range(coded.shape[0])
        ]

    def encode_stacks(
        self,
        messages: list[bytes],
        rng: np.random.Generator,
        matrices: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`encode_batch` as stacks: block ``i`` of message ``b`` is
        ``(matrices[b, i], coded[b, i])``, the form the data plane ships."""
        messages = [bytes(message) for message in messages]
        if not messages:
            empty = np.empty((0, self.d_prime, self.d), dtype=np.uint8)
            return empty, np.empty((0, self.d_prime, 0), dtype=np.uint8)
        length = len(messages[0])
        if any(len(message) != length for message in messages):
            raise CodingError("encode_batch requires equal-length messages")
        batch = len(messages)
        if matrices is None:
            matrices = self.generate_matrices(batch, rng)
        matrices = np.asarray(matrices, dtype=np.uint8)
        if matrices.shape == (self.d_prime, self.d):
            matrices = np.broadcast_to(matrices, (batch, self.d_prime, self.d))
        if matrices.shape != (batch, self.d_prime, self.d):
            raise CodingError(
                f"coding matrix stack shape {matrices.shape} does not match "
                f"(batch={batch}, d'={self.d_prime}, d={self.d})"
            )
        pieces = _pad_messages(messages, self.d)
        return matrices, self.field.matmul(matrices, pieces)

    # -- decoding ----------------------------------------------------------------

    def decode(self, blocks: list[CodedBlock]) -> bytes:
        """Reconstruct the original message from any ``d`` independent blocks.

        Raises :class:`InsufficientSlicesError` when fewer than ``d``
        linearly independent blocks are available, and :class:`CodingError`
        when block shapes are inconsistent.
        """
        independent = self.select_independent(blocks)
        if len(independent) < self.d:
            raise InsufficientSlicesError(self.d, len(independent))
        rows = np.stack([b.coefficients for b in independent[: self.d]])
        payloads = np.stack([b.payload for b in independent[: self.d]])
        inverse = self.field.invert_matrix(rows)
        pieces = self.field.matmul(inverse, payloads)
        return _unpad_message(pieces)

    def decode_batch(self, blocks_batch: list[list[CodedBlock]]) -> list[bytes]:
        """Decode a batch of block lists in one 3-D pass; see :meth:`decode`.

        All coefficient matrices are inverted together by the batched
        Gauss–Jordan kernel and all payloads recovered by one batched
        multiply.  Every entry must decode to a message of the same padded
        length (the common case: equal-size packets).
        """
        blocks_batch = list(blocks_batch)
        if not blocks_batch:
            return []
        selections: list[list[CodedBlock]] = []
        for blocks in blocks_batch:
            independent = self.select_independent(blocks)
            if len(independent) < self.d:
                raise InsufficientSlicesError(self.d, len(independent))
            selections.append(independent[: self.d])
        payload_len = selections[0][0].payload.shape[0]
        for selection in selections:
            if any(block.payload.shape[0] != payload_len for block in selection):
                raise CodingError(
                    "decode_batch requires equal payload lengths across the batch"
                )
        rows = np.stack(
            [np.stack([block.coefficients for block in sel]) for sel in selections]
        )
        payloads = np.stack(
            [np.stack([block.payload for block in sel]) for sel in selections]
        )
        inverses = self.field.invert_matrices(rows)
        pieces = self.field.matmul(inverses, payloads)
        return [_unpad_message(piece) for piece in pieces]

    def select_independent(self, blocks: list[CodedBlock]) -> list[CodedBlock]:
        """Return a maximal linearly independent subset of ``blocks`` (greedy)."""
        if not blocks:
            return []
        payload_len = blocks[0].payload.shape[0]
        selected: list[CodedBlock] = []
        rows: list[np.ndarray] = []
        for block in blocks:
            if block.coefficients.shape[0] != self.d:
                raise CodingError(
                    f"block coded with split factor {block.coefficients.shape[0]}, "
                    f"decoder expects {self.d}"
                )
            if block.payload.shape[0] != payload_len:
                raise CodingError("coded blocks have inconsistent payload lengths")
            candidate = rows + [block.coefficients]
            if self.field.rank(np.stack(candidate)) == len(candidate):
                rows.append(block.coefficients)
                selected.append(block)
            if len(selected) == self.d:
                break
        return selected

    def can_decode(self, blocks: list[CodedBlock]) -> bool:
        """True iff ``blocks`` contain ``d`` linearly independent rows."""
        try:
            return len(self.select_independent(blocks)) >= self.d
        except CodingError:
            return False

    # -- network coding (§4.4.1) ---------------------------------------------------

    def recombine(
        self, blocks: list[CodedBlock], rng: np.random.Generator
    ) -> CodedBlock:
        """Produce a fresh coded block as a random linear combination of ``blocks``.

        This is the relay-side redundancy regeneration of §4.4.1: a relay that
        received at least ``d`` blocks can synthesise replacements for blocks
        lost upstream.  The combination coefficients are drawn uniformly at
        random (non-zero for at least one input so the result is never the
        zero block).
        """
        if not blocks:
            raise CodingError("cannot recombine an empty block list")
        payload_len = blocks[0].payload.shape[0]
        for block in blocks:
            if block.payload.shape[0] != payload_len:
                raise CodingError("cannot recombine blocks of different payload lengths")
            if block.coefficients.shape[0] != self.d:
                raise CodingError("cannot recombine blocks with mismatched split factors")
        while True:
            weights = self.field.random_elements(len(blocks), rng)
            if np.any(weights != 0):
                break
        coeff_stack = np.stack([b.coefficients for b in blocks])
        payload_stack = np.stack([b.payload for b in blocks])
        new_coeff = self.field.matmul(weights[None, :], coeff_stack)[0]
        new_payload = self.field.matmul(weights[None, :], payload_stack)[0]
        return CodedBlock(coefficients=new_coeff, payload=new_payload, index=-1)

    def regenerate(
        self, blocks: list[CodedBlock], count: int, rng: np.random.Generator
    ) -> list[CodedBlock]:
        """Create ``count`` recombined blocks (convenience wrapper)."""
        return [self.recombine(blocks, rng) for _ in range(count)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SliceCoder(d={self.d}, d_prime={self.d_prime})"
