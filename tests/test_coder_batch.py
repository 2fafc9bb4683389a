"""Batched coding path: equivalence with the per-message path, round trips,
and the batched GF(2^8) kernels underneath it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gf as oracle
from repro.core.coder import SliceCoder
from repro.core.errors import CodingError, FieldError, InsufficientSlicesError
from repro.core.gf import GF, uint8_blocks, uint8_draws
from repro.core.matrix import cauchy_matrix, mds_matrix


def _messages(rng, count, size):
    return [bytes(rng.integers(0, 256, size, dtype=np.uint8)) for _ in range(count)]


# -- batched GF kernels ----------------------------------------------------------


def test_batched_matmul_matches_per_item():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 256, (12, 3, 5), dtype=np.uint8)
    b = rng.integers(0, 256, (12, 5, 7), dtype=np.uint8)
    batched = GF.matmul(a, b)
    assert batched.shape == (12, 3, 7)
    for i in range(12):
        assert np.array_equal(batched[i], GF.matmul(a[i], b[i]))


def test_batched_matmul_broadcasts_single_operand():
    rng = np.random.default_rng(2)
    single = rng.integers(0, 256, (3, 5), dtype=np.uint8)
    stack = rng.integers(0, 256, (8, 5, 4), dtype=np.uint8)
    result = GF.matmul(single, stack)
    for i in range(8):
        assert np.array_equal(result[i], GF.matmul(single, stack[i]))


def test_batched_matmul_shape_mismatch():
    with pytest.raises(FieldError, match="mismatch"):
        GF.batched_matmul(np.zeros((2, 3, 4), dtype=np.uint8), np.zeros((2, 5, 4), dtype=np.uint8))
    with pytest.raises(FieldError, match="dimensions"):
        GF.batched_matmul(np.zeros(3, dtype=np.uint8), np.zeros((2, 3, 4), dtype=np.uint8))


def test_invert_matrices_matches_single_inversion():
    rng = np.random.default_rng(3)
    coder = SliceCoder(4)
    stack = coder.generate_matrices(20, rng)
    inverses = GF.invert_matrices(stack)
    identity = np.eye(4, dtype=np.uint8)
    for i in range(20):
        assert np.array_equal(inverses[i], oracle.invert_matrix(GF, stack[i]))
        assert np.array_equal(GF.matmul(stack[i], inverses[i]), identity)


def test_invert_matrices_rejects_singular():
    rng = np.random.default_rng(4)
    good = SliceCoder(3).generate_matrices(4, rng)
    bad = good.copy()
    bad[2, 1] = bad[2, 0]  # duplicate row => singular
    assert GF.invertible_mask(bad).tolist() == [True, True, False, True]
    with pytest.raises(FieldError, match="singular"):
        GF.invert_matrices(bad)


def test_invert_matrices_rejects_bad_shapes():
    with pytest.raises(FieldError, match="square"):
        GF.invert_matrices(np.zeros((2, 3, 4), dtype=np.uint8))
    with pytest.raises(FieldError, match="square"):
        GF.invert_matrices(np.zeros((3, 3), dtype=np.uint8))


# -- generate_matrices -----------------------------------------------------------


@pytest.mark.parametrize("d,d_prime", [(1, 1), (2, 2), (3, 3), (2, 4), (3, 5)])
def test_generate_matrices_shapes_and_rank(d, d_prime):
    rng = np.random.default_rng(5)
    coder = SliceCoder(d, d_prime)
    stack = coder.generate_matrices(10, rng)
    assert stack.shape == (10, d_prime, d)
    for matrix in stack:
        assert GF.rank(matrix) == d


def test_generate_matrices_empty_and_invalid():
    rng = np.random.default_rng(6)
    coder = SliceCoder(2)
    assert coder.generate_matrices(0, rng).shape == (0, 2, 2)
    with pytest.raises(CodingError):
        coder.generate_matrices(-1, rng)


@pytest.mark.parametrize("count", [0, 1, 7])
@pytest.mark.parametrize("extra", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_redundant_matrices_are_stream_identical_to_mds_matrix(d, extra, count):
    """The cached Cauchy base, scaled for a whole stack, draws and returns
    exactly what one ``mds_matrix`` call per matrix would."""
    d_prime = d + extra
    coder = SliceCoder(d, d_prime)
    rng, reference_rng = np.random.default_rng(17), np.random.default_rng(17)
    stack = coder.generate_matrices(count, rng)
    expected = [mds_matrix(d_prime, d, rng=reference_rng) for _ in range(count)]
    assert stack.dtype == np.uint8
    assert stack.shape == (count, d_prime, d)
    assert all(np.array_equal(got, want) for got, want in zip(stack, expected))
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    single = coder.generate_matrix(rng)
    assert np.array_equal(single, mds_matrix(d_prime, d, rng=reference_rng))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_square_matrix_run_is_stream_identical_to_single_draws(d):
    """One run of ``count`` coding matrices is ``count`` rejection loops of
    single draws — matrices and the generator's next draw alike — including
    where a singular candidate is skipped (likely at d = 1: a zero byte)."""
    coder = SliceCoder(d)
    skipped = 0
    for seed in range(3):
        for count in range(41):
            rng, singles_rng, oracle_rng = (np.random.default_rng((seed, count)) for _ in range(3))
            run = coder.generate_matrix_run(count, rng)
            assert run.shape == (count, d, d) and run.dtype == np.uint8
            singles = [coder.generate_matrix(singles_rng) for _ in range(count)]
            drawn = [oracle.random_invertible_matrix(GF, d, oracle_rng) for _ in range(count)]
            skipped += sum(skips for _, skips in drawn)
            for got, single, (want, _) in zip(run, singles, drawn):
                assert np.array_equal(got, want) and np.array_equal(single, want)
            assert rng.bit_generator.state == singles_rng.bit_generator.state
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
    if d == 1:
        assert skipped > 0  # the skip path ran


@pytest.mark.parametrize("d,d_prime", [(1, 2), (2, 3), (3, 5)])
def test_redundant_matrix_run_is_stream_identical_to_single_draws(d, d_prime):
    coder = SliceCoder(d, d_prime)
    for count in range(41):
        rng, singles_rng, mds_rng = (np.random.default_rng(count) for _ in range(3))
        run = coder.generate_matrix_run(count, rng)
        assert run.shape == (count, d_prime, d)
        singles = [coder.generate_matrix(singles_rng) for _ in range(count)]
        expected = [mds_matrix(d_prime, d, rng=mds_rng) for _ in range(count)]
        assert all(np.array_equal(a, b) for a, b in zip(run, singles))
        assert all(np.array_equal(a, b) for a, b in zip(run, expected))
        assert rng.bit_generator.state == singles_rng.bit_generator.state
        assert rng.bit_generator.state == mds_rng.bit_generator.state


def _generators(seed, prior):
    """Two generators in one state, after ``prior`` ``uint32`` draws: an odd
    count leaves half of a drawn 64-bit word buffered for the next one."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in pair:
        rng.integers(0, 1 << 32, prior, np.uint32)
    assert pair[0].bit_generator.state["has_uint32"] == prior % 2
    return pair


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 13), max_size=5),
    st.integers(0, 6),
    st.sampled_from(["blocks", "full", "nonzero", "redraw"]),
    st.integers(0, 2**16),
    st.integers(0, 3),
)
def test_burst_draws_are_per_call_draws(lengths, count, mode, seed, prior):
    """One burst of ``uint8`` calls returns and leaves the generator exactly
    where the calls one by one do, whatever the lengths, mode and buffered word."""
    if mode == "redraw":
        lengths = [max(n, 1) for n in lengths]
    rng, reference = _generators(seed, prior)
    if mode == "blocks":
        blocks = uint8_blocks(rng, lengths, count)
        assert [block.shape for block in blocks] == [(count, n) for n in lengths]
        got = np.concatenate([np.empty((count, 0), np.uint8), *blocks], axis=1)
    else:
        got = uint8_draws(rng, lengths, count, nonzero=mode == "nonzero",
                          redraw_zero=mode == "redraw")
    want, _, _ = oracle.uint8_calls(
        reference, lengths * count, low=int(mode == "nonzero"), redraw_zero=mode == "redraw"
    )
    assert got.shape == (count, sum(lengths)) and got.dtype == np.uint8
    assert np.array_equal(got.reshape(-1), want)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_burst_draws_take_the_rare_paths_as_per_call_draws_do():
    """Calls that read past their words — from the last call, whose top-up is
    drawn on demand, and from a middle one — and zero calls made again."""
    long_calls = redraws = 0
    for seed in range(40):
        for lengths, mode in (((8,), "nonzero"), ((4, 12, 5), "nonzero"), ((1, 2), "redraw")):
            rng, reference = _generators(seed, seed % 2)
            got = uint8_draws(rng, lengths, 30, nonzero=mode == "nonzero",
                              redraw_zero=mode == "redraw")
            want, long, redrawn = oracle.uint8_calls(
                reference, lengths * 30, low=int(mode == "nonzero"), redraw_zero=mode == "redraw"
            )
            long_calls, redraws = long_calls + long, redraws + redrawn
            assert np.array_equal(got.reshape(-1), want)
            assert rng.bit_generator.state == reference.bit_generator.state
    assert long_calls > 0 and redraws > 0  # both rare paths ran


@pytest.mark.parametrize("d,d_prime", [(1, 4), (2, 8), (4, 12)])
def test_redundant_scales_that_read_past_their_words_are_single_calls(d, d_prime):
    """A redundant stack's scales are the per-matrix non-zero calls, values
    and next draw alike, where a call's words hold a zero byte and it reads
    another (call lengths above 4, and a generator holding half a word,
    included)."""
    coder, cauchy = SliceCoder(d, d_prime), cauchy_matrix(d_prime, d)
    long_calls = 0
    for seed in range(8):
        for prior in (0, 1):
            rng, reference = _generators(seed, prior)
            stack = coder.generate_matrices(40, rng)
            scales, long, _ = oracle.uint8_calls(reference, [d_prime, d] * 40, low=1)
            long_calls += long
            scales = scales.reshape(40, d_prime + d)
            rows, cols = scales[:, :d_prime, None], scales[:, None, d_prime:]
            assert np.array_equal(stack, GF.multiply(GF.multiply(cauchy, rows), cols))
            assert rng.bit_generator.state == reference.bit_generator.state
    assert long_calls > 0  # the extra-word path ran


# -- encode_batch / decode_batch -------------------------------------------------


@pytest.mark.parametrize("d,d_prime", [(1, 1), (2, 2), (3, 5), (8, 8)])
def test_encode_batch_matches_per_message_encode(d, d_prime):
    rng = np.random.default_rng(7)
    coder = SliceCoder(d, d_prime)
    messages = _messages(rng, 16, 257)
    matrices = coder.generate_matrices(len(messages), np.random.default_rng(8))
    batch = coder.encode_batch(messages, rng, matrices=matrices)
    for i, message in enumerate(messages):
        single = coder.encode(message, rng, matrix=matrices[i])
        assert len(single) == len(batch[i]) == d_prime
        for expected, got in zip(single, batch[i]):
            assert np.array_equal(expected.coefficients, got.coefficients)
            assert np.array_equal(expected.payload, got.payload)
            assert expected.index == got.index


def test_encode_batch_shared_matrix_broadcasts():
    rng = np.random.default_rng(9)
    coder = SliceCoder(3)
    messages = _messages(rng, 5, 100)
    matrix = coder.generate_matrix(rng)
    batch = coder.encode_batch(messages, rng, matrices=matrix)
    for i, message in enumerate(messages):
        single = coder.encode(message, rng, matrix=matrix)
        for expected, got in zip(single, batch[i]):
            assert np.array_equal(expected.payload, got.payload)


def test_round_trip_through_decode_batch():
    rng = np.random.default_rng(10)
    coder = SliceCoder(3, 5)
    messages = _messages(rng, 12, 400)
    batch = coder.encode_batch(messages, rng)
    assert coder.decode_batch(batch) == messages
    # Any d of the d' blocks suffice: drop the first two from every message.
    assert coder.decode_batch([blocks[2:] for blocks in batch]) == messages


def test_decode_batch_interoperates_with_per_message_encode():
    rng = np.random.default_rng(11)
    coder = SliceCoder(2, 3)
    messages = _messages(rng, 6, 64)
    batches = [coder.encode(message, rng) for message in messages]
    assert coder.decode_batch(batches) == messages


def test_encode_batch_rejects_mixed_lengths():
    rng = np.random.default_rng(12)
    coder = SliceCoder(2)
    with pytest.raises(CodingError, match="equal-length"):
        coder.encode_batch([b"short", b"much longer message"], rng)


def test_encode_batch_rejects_bad_matrix_stack():
    rng = np.random.default_rng(13)
    coder = SliceCoder(2)
    messages = _messages(rng, 4, 32)
    with pytest.raises(CodingError, match="stack shape"):
        coder.encode_batch(messages, rng, matrices=np.zeros((3, 2, 2), dtype=np.uint8))


def test_encode_batch_empty():
    rng = np.random.default_rng(14)
    assert SliceCoder(2).encode_batch([], rng) == []
    assert SliceCoder(2).decode_batch([]) == []


def test_decode_batch_insufficient_slices():
    rng = np.random.default_rng(15)
    coder = SliceCoder(3)
    batch = coder.encode_batch(_messages(rng, 3, 50), rng)
    broken = [batch[0], batch[1][:2], batch[2]]
    with pytest.raises(InsufficientSlicesError):
        coder.decode_batch(broken)


def test_decode_batch_rejects_mixed_payload_lengths():
    rng = np.random.default_rng(16)
    coder = SliceCoder(2)
    short = coder.encode_batch(_messages(rng, 1, 10), rng)
    long = coder.encode_batch(_messages(rng, 1, 500), rng)
    with pytest.raises(CodingError, match="payload lengths"):
        coder.decode_batch([short[0], long[0]])


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=5),
    redundancy=st.integers(min_value=0, max_value=3),
    count=st.integers(min_value=1, max_value=8),
    size=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_hypothesis_batch_round_trip(d, redundancy, count, size, seed):
    rng = np.random.default_rng(seed)
    coder = SliceCoder(d, d + redundancy)
    messages = _messages(rng, count, size)
    batch = coder.encode_batch(messages, rng)
    assert coder.decode_batch(batch) == messages
    # Per-message decode agrees with the batched decode.
    for message, blocks in zip(messages, batch):
        assert coder.decode(blocks) == message
