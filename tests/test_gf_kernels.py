"""Compiled GF(2^8) kernel backend: bit-identity, selection and fallback.

The contract under test (``docs/ARCHITECTURE.md``, "Compiled kernels"): the
``"compiled"`` kernel is an *accelerator*, never an approximation — every
array it returns, including the unspecified entries of singular Gauss–Jordan
outputs, is bit-identical to the ``"numpy"`` reference — and it degrades
gracefully: when neither numba nor a C toolchain is available the numpy
kernel keeps working and ``"compiled"`` fails loudly with an actionable
:class:`~repro.core.errors.KernelUnavailableError`.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gf_kernels
from repro.core.coder import SliceCoder
from repro.core.errors import FieldError, KernelUnavailableError
from repro.core.gf import (
    GF,
    GF256,
    active_kernel,
    available_kernels,
    default_field,
    field_for_kernel,
    use_kernel,
)

requires_compiled = pytest.mark.skipif(
    not gf_kernels.compiled_available(),
    reason=f"no compiled provider: {gf_kernels.compiled_unavailable_reason()}",
)


def _rng_array(seed, shape):
    return np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)


# -- bit-identity against the numpy reference ---------------------------------------


@requires_compiled
@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (1,), (7,), (3, 5), (2, 3, 4)]))
def test_compiled_multiply_is_bit_identical(seed, shape):
    compiled = field_for_kernel("compiled")
    a = _rng_array(seed, shape)
    b = _rng_array(seed + 1, shape)
    assert np.array_equal(GF.multiply(a, b), compiled.multiply(a, b))


@requires_compiled
def test_compiled_multiply_broadcasts_like_numpy():
    compiled = field_for_kernel("compiled")
    a = _rng_array(0, (4, 1, 6))
    b = _rng_array(1, (3, 1))
    assert np.array_equal(GF.multiply(a, b), compiled.multiply(a, b))
    assert np.array_equal(GF.multiply(a, 0x83), compiled.multiply(a, 0x83))
    assert int(compiled.multiply(0x57, 0x83)) == 0xC1


@requires_compiled
@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 8),
    m=st.integers(1, 9),
    k=st.integers(1, 9),
    n=st.integers(1, 9),
)
def test_compiled_batched_matmul_is_bit_identical(seed, batch, m, k, n):
    compiled = field_for_kernel("compiled")
    a = _rng_array(seed, (batch, m, k))
    b = _rng_array(seed + 1, (batch, k, n))
    assert np.array_equal(GF.batched_matmul(a, b), compiled.batched_matmul(a, b))


@requires_compiled
@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 12), n=st.integers(1, 6))
def test_compiled_inversion_is_bit_identical_on_mixed_stacks(seed, batch, n):
    """Singular members included: even the garbage entries match bit-for-bit."""
    compiled = field_for_kernel("compiled")
    stacks = _rng_array(seed, (batch, n, n))
    # Force the first members singular in two different ways so every run
    # exercises the dead-pivot path, not just whatever chance provides.
    stacks[0] = 0
    if batch > 1 and n > 1:
        stacks[1, :, 0] = stacks[1, :, 1]
    ref_inv, ref_invertible = GF.try_invert_matrices(stacks)
    fast_inv, fast_invertible = compiled.try_invert_matrices(stacks)
    assert np.array_equal(ref_invertible, fast_invertible)
    assert np.array_equal(ref_inv, fast_inv)
    assert not bool(ref_invertible[0])  # the forced all-zero member


@requires_compiled
def test_cross_kernel_coding_round_trips():
    """Blocks encoded under one kernel decode under the other."""
    messages = [bytes([i] * 96) for i in range(6)]
    for encode_kernel, decode_kernel in (("compiled", "numpy"), ("numpy", "compiled")):
        encoder = SliceCoder(4, field=field_for_kernel(encode_kernel))
        decoder = SliceCoder(4, field=field_for_kernel(decode_kernel))
        rng = np.random.default_rng(7)
        assert decoder.decode(encoder.encode(messages[0], rng)) == messages[0]
        batches = encoder.encode_batch(messages, rng)
        assert decoder.decode_batch(batches) == messages


@requires_compiled
def test_kernel_choice_never_changes_coded_bytes():
    """The same rng seed yields byte-identical blocks on both kernels —
    the invariant that keeps cached experiment artifacts kernel-independent."""
    message = bytes(range(128))
    blocks = {
        kernel: SliceCoder(4, field=field_for_kernel(kernel)).encode(
            message, np.random.default_rng(11)
        )
        for kernel in ("numpy", "compiled")
    }
    for numpy_block, compiled_block in zip(*blocks.values()):
        assert numpy_block.to_bytes() == compiled_block.to_bytes()


# -- kernel selection ---------------------------------------------------------------


def test_unknown_kernel_is_rejected_everywhere():
    with pytest.raises(FieldError, match="unknown kernel"):
        GF256(kernel="fortran")
    with pytest.raises(FieldError, match="unknown kernel"):
        field_for_kernel("fortran")


def test_explicit_field_beats_the_active_kernel():
    explicit = GF256()
    assert SliceCoder(3, field=explicit).field is explicit
    with use_kernel("numpy"):
        assert SliceCoder(3, field=explicit).field is explicit  # field beats kernel
        assert SliceCoder(3).field is field_for_kernel("numpy")
    assert default_field() is GF


def test_use_kernel_scopes_the_active_kernel():
    assert active_kernel() == "numpy"
    with use_kernel(None):  # None is the explicit no-op
        assert active_kernel() == "numpy"
    if gf_kernels.compiled_available():
        with use_kernel("compiled"):
            assert active_kernel() == "compiled"
            assert default_field().kernel == "compiled"
            assert SliceCoder(3).field.kernel == "compiled"
        assert active_kernel() == "numpy"
    with pytest.raises(FieldError, match="unknown kernel"):
        with use_kernel("fortran"):
            pass
    assert active_kernel() == "numpy"


def test_available_kernels_always_includes_numpy():
    kernels = available_kernels()
    assert kernels[0] == "numpy"
    assert ("compiled" in kernels) == gf_kernels.compiled_available()


@requires_compiled
def test_shared_compiled_field_is_cached():
    assert field_for_kernel("compiled") is field_for_kernel("compiled")
    assert field_for_kernel("numpy") is GF


# -- fallback when no provider is available -----------------------------------------


def test_provider_disabled_by_env_raises_and_numpy_still_works(monkeypatch):
    monkeypatch.setenv(gf_kernels.PROVIDER_ENV, "none")
    gf_kernels.reset_provider_cache()
    try:
        assert not gf_kernels.compiled_available()
        assert "disabled" in (gf_kernels.compiled_unavailable_reason() or "")
        with pytest.raises(KernelUnavailableError):
            GF256(kernel="compiled")
        # The reference kernel is untouched by the compiled backend's absence.
        field = GF256()
        assert int(field.multiply(0x57, 0x83)) == 0xC1
    finally:
        monkeypatch.delenv(gf_kernels.PROVIDER_ENV)
        gf_kernels.reset_provider_cache()


def test_unknown_provider_env_value_raises(monkeypatch):
    monkeypatch.setenv(gf_kernels.PROVIDER_ENV, "gpu")
    gf_kernels.reset_provider_cache()
    try:
        with pytest.raises(KernelUnavailableError, match="gpu"):
            gf_kernels.load_provider()
    finally:
        monkeypatch.delenv(gf_kernels.PROVIDER_ENV)
        gf_kernels.reset_provider_cache()


def test_fallback_in_a_pristine_interpreter():
    """A subprocess with the provider disabled: import, compute, fail loudly.

    This is the exact situation of an install without the ``[fast]`` extra on
    a host with no C toolchain — nothing at import time may touch or require
    a compiled provider.
    """
    code = (
        "from repro.core.gf import GF, GF256\n"
        "from repro.core.errors import KernelUnavailableError\n"
        "assert int(GF.multiply(0x57, 0x83)) == 0xC1\n"
        "try:\n"
        "    GF256(kernel='compiled')\n"
        "except KernelUnavailableError as error:\n"
        "    assert 'REPRO_GF_KERNEL_PROVIDER' in str(error), error\n"
        "else:\n"
        "    raise SystemExit('compiled kernel loaded despite being disabled')\n"
        "print('fallback ok')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**__import__("os").environ, gf_kernels.PROVIDER_ENV: "none"},
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert "fallback ok" in result.stdout
