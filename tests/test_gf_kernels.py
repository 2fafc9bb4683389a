"""The C loops behind GF(2^8): bit-identity, automatic selection and fallback.

The contract under test (``docs/ARCHITECTURE.md``, "Compiled kernels"): the C
provider is an *accelerator*, never an approximation — every array it
returns, including the unspecified entries of singular Gauss–Jordan outputs,
is bit-identical to the numpy reference ``GF256(compiled=False)``.  Nobody
selects it: the field dispatches the two stacked loops to it when it loads,
lazily, and every way it can fail to load ends in the numpy path with a
one-line reason.  Elementwise ``multiply`` never leaves numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gf as oracle
from repro.core import gf_kernels
from repro.core.coder import SliceCoder
from repro.core.errors import FieldError
from repro.core.gf import GF, GF256, active_kernel

#: The numpy side of every comparison below, wherever the tests run.
REFERENCE = GF256(compiled=False)

#: (numpy side, dispatching side) under the default polynomial and under the
#: Reed-Solomon one, x^8 + x^4 + x^3 + x^2 + 1 (0x11D, generator 0x02): the C
#: loops index whichever table the field passes them.
FIELD_PAIRS = st.sampled_from(
    [(REFERENCE, GF), (GF256(0x11D, 0x02, compiled=False), GF256(0x11D, 0x02))]
)

requires_compiled = pytest.mark.skipif(
    gf_kernels.load_provider() is None,
    reason=f"C provider does not load: {gf_kernels.unavailable_reason()}",
)


def _rng_array(seed, shape):
    return np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)


# -- bit-identity against the numpy reference ---------------------------------------


@requires_compiled
@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 8),
    m=st.integers(1, 9),
    k=st.integers(0, 9),
    n=st.integers(1, 9),
    broadcast=st.sampled_from(["neither", "a", "b"]),
    fields=FIELD_PAIRS,
)
def test_compiled_batched_matmul_is_bit_identical(seed, batch, m, k, n, broadcast, fields):
    """Incl. a single matrix against a stack, and the empty inner axis."""
    reference, field = fields
    a = _rng_array(seed, (m, k) if broadcast == "a" else (batch, m, k))
    b = _rng_array(seed + 1, (k, n) if broadcast == "b" else (batch, k, n))
    expected = reference.batched_matmul(a, b)
    assert expected.shape == (batch, m, n)
    assert np.array_equal(expected, field.batched_matmul(a, b))


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 12),
    n=st.integers(1, 6),
    fields=FIELD_PAIRS,
)
def test_compiled_inversion_is_bit_identical_on_mixed_stacks(seed, batch, n, fields):
    """Singular members included: even the garbage entries match bit-for-bit.

    Where no provider loads both sides are numpy, and what is left is the
    scalar oracle: the mask is per-matrix full ``rank`` and the regular
    entries are ``oracles/gf.py::invert_matrix``, as is ``invert_matrix``.
    """
    stacks = _rng_array(seed, (batch, n, n))
    # Force the first members singular in two different ways so every run
    # exercises the dead-pivot path, not just whatever chance provides.
    stacks[0] = 0
    if batch > 1 and n > 1:
        stacks[1, :, 0] = stacks[1, :, 1]
    reference, field = fields
    ref_inv, ref_invertible = reference.try_invert_matrices(stacks)
    fast_inv, fast_invertible = field.try_invert_matrices(stacks)
    assert np.array_equal(ref_invertible, fast_invertible)
    assert np.array_equal(ref_inv, fast_inv)
    assert np.array_equal(field.invertible_mask(stacks), ref_invertible)
    assert not bool(ref_invertible[0])  # the forced all-zero member
    for matrix, inverse, invertible in zip(stacks, fast_inv, fast_invertible):
        assert bool(invertible) == (reference.rank(matrix) == n)
        if invertible:
            assert np.array_equal(inverse, oracle.invert_matrix(reference, matrix))
            assert np.array_equal(field.invert_matrix(matrix), inverse)
        else:
            with pytest.raises(FieldError, match="singular"):
                field.invert_matrix(matrix)
    regular = stacks[fast_invertible]
    assert np.array_equal(field.invert_matrices(regular), fast_inv[fast_invertible])
    with pytest.raises(FieldError, match="singular"):
        field.invert_matrices(stacks)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 6),
    n=st.integers(1, 6),
    width=st.integers(1, 64),
    fields=FIELD_PAIRS,
)
def test_elimination_of_augmented_stacks_is_bit_identical(seed, batch, n, width, fields):
    """``[A | R]`` of any right-hand width: the same bytes on both sides of
    the provider, garbage rows of singular members included, and ``A⁻¹R``
    on every invertible member; ``solve`` is that elimination."""
    a = _rng_array(seed, (batch, n, n))
    r = _rng_array(seed + 1, (batch, n, width))
    a[0] = 0  # a forced singular member, dead from the first pivot
    if batch > 1 and n > 1:
        a[1, :, -1] = a[1, :, 0]  # and one that dies at the last pivot
    reference, field = fields
    reduced = []
    for side in (reference, field):
        aug = np.concatenate([a, r], axis=2)
        reduced.append((aug, side._eliminate(aug)))
    (ref_aug, ref_singular), (aug, singular) = reduced
    assert np.array_equal(ref_aug, aug) and np.array_equal(ref_singular, singular)
    assert singular[0] and (batch < 2 or n < 2 or singular[1])
    inverses, invertible = reference.try_invert_matrices(a)
    assert np.array_equal(invertible, ~singular)
    regular = np.flatnonzero(invertible)
    expected = reference.batched_matmul(inverses[regular], r[regular])
    assert np.array_equal(aug[regular, :, n:], expected)
    assert (aug[regular, :, :n] == np.eye(n, dtype=np.uint8)).all()
    for member, rhs, dead in zip(a, r, singular):
        for b in (rhs, rhs[:, 0]):  # a matrix and a vector right-hand side
            if dead:
                with pytest.raises(FieldError, match="singular"):
                    field.solve(member, b)
            else:
                expected = reference.matmul(oracle.invert_matrix(reference, member), b)
                assert np.array_equal(field.solve(member, b), expected)


def test_solve_rejects_bad_shapes():
    with pytest.raises(FieldError, match="square"):
        GF.solve(np.ones((2, 3), np.uint8), np.ones(2, np.uint8))
    with pytest.raises(FieldError, match="mismatch"):
        GF.solve(np.eye(3, dtype=np.uint8), np.ones((2, 4), np.uint8))


@requires_compiled
def test_cross_kernel_coding_round_trips():
    """Blocks encoded on one side of the selection decode on the other."""
    messages = [bytes([i] * 96) for i in range(6)]
    for encode_field, decode_field in ((GF, REFERENCE), (REFERENCE, GF)):
        encoder = SliceCoder(4, field=encode_field)
        decoder = SliceCoder(4, field=decode_field)
        rng = np.random.default_rng(7)
        assert decoder.decode(encoder.encode(messages[0], rng)) == messages[0]
        batches = encoder.encode_batch(messages, rng)
        assert decoder.decode_batch(batches) == messages


@requires_compiled
def test_kernel_choice_never_changes_coded_bytes():
    """The same rng seed yields byte-identical blocks on both sides — the
    invariant that lets the field pick per host without touching an artifact."""
    message = bytes(range(128))
    numpy_blocks, compiled_blocks = (
        SliceCoder(4, field=field).encode(message, np.random.default_rng(11))
        for field in (REFERENCE, GF)
    )
    for numpy_block, compiled_block in zip(numpy_blocks, compiled_blocks):
        assert numpy_block.to_bytes() == compiled_block.to_bytes()


# -- what the field dispatches to ---------------------------------------------------


def test_explicit_field_beats_the_active_kernel():
    assert SliceCoder(3, field=REFERENCE).field is REFERENCE
    assert SliceCoder(3).field is GF
    assert active_kernel() == ("numpy" if gf_kernels.load_provider() is None else "compiled")


@requires_compiled
def test_shared_compiled_field_is_cached():
    """Success is resolved once per process; so is the table the C loops index."""
    assert gf_kernels.load_provider() is gf_kernels.load_provider()
    GF.batched_matmul(np.ones((1, 1, 1), np.uint8), np.ones((1, 1, 1), np.uint8))
    table = GF._mul_table
    assert table.shape == (65536,) and table[0x57 * 256 + 0x83] == 0xC1
    GF.try_invert_matrices(np.ones((1, 1, 1), np.uint8))
    assert GF._mul_table is table
    assert REFERENCE._mul_table is None  # the numpy side never builds it


class _ExplodingProvider:
    def __getattr__(self, name):
        raise AssertionError(f"the provider's {name} was reached")


def test_multiply_never_reaches_the_provider(monkeypatch):
    monkeypatch.setattr(gf_kernels, "_resolution", (_ExplodingProvider(), None))
    field = GF256()
    a = _rng_array(0, (4, 1, 6))
    b = _rng_array(1, (3, 1))
    assert np.array_equal(field.multiply(a, b), REFERENCE.multiply(a, b))  # broadcasts
    assert int(field.multiply(0x57, 0x83)) == 0xC1
    square = _rng_array(2, (5, 5))
    assert np.array_equal(field.matmul(square, square), REFERENCE.matmul(square, square))
    assert field.rank(square) == REFERENCE.rank(square)
    # ... whereas the stacked loops do ask for it.
    with pytest.raises(AssertionError, match="batched_matmul was reached"):
        field.batched_matmul(square[None], square[None])


# -- fallback: every way the provider can fail to load ends in numpy ----------------


def test_provider_disabled_by_env_falls_back_to_numpy(monkeypatch):
    monkeypatch.setenv(gf_kernels.PROVIDER_ENV, "none")
    monkeypatch.setattr(gf_kernels, "_resolution", None)
    assert gf_kernels.load_provider() is None
    assert "disabled by REPRO_GF_KERNEL_PROVIDER=none" in gf_kernels.unavailable_reason()
    assert active_kernel() == "numpy"
    stacks = _rng_array(3, (5, 3, 3))
    for got, expected in zip(
        GF.try_invert_matrices(stacks), REFERENCE.try_invert_matrices(stacks)
    ):
        assert np.array_equal(got, expected)


def test_unknown_provider_env_value_raises(monkeypatch):
    # "cext" was legal until the option went; now only "none" is.
    for value in ("gpu", "cext"):
        monkeypatch.setenv(gf_kernels.PROVIDER_ENV, value)
        monkeypatch.setattr(gf_kernels, "_resolution", None)
        with pytest.raises(FieldError, match=f"unknown .* value '{value}'") as raised:
            gf_kernels.load_provider()
        assert "\n" not in str(raised.value)


_ROUND_TRIP = (
    "import numpy as np\n"
    "from repro.core import gf_kernels\n"
    "from repro.core.coder import SliceCoder\n"
    "from repro.core.gf import active_kernel\n"
    "coder = SliceCoder(3, 5)\n"
    "messages = [bytes([i] * 64) for i in range(4)]\n"
    "blocks = coder.encode_batch(messages, np.random.default_rng(1))\n"
    "assert coder.decode_batch(blocks) == messages\n"
    "print(active_kernel(), '|', gf_kernels.unavailable_reason())\n"
)


def _pristine(code, tmp_path, **env):
    """Run ``code`` in a fresh interpreter whose cache lives under ``tmp_path``."""
    environ = {key: value for key, value in os.environ.items()
               if key not in (gf_kernels.PROVIDER_ENV, "CC")}
    environ["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    environ.update(env)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=environ, check=False
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_fallback_in_a_pristine_interpreter(tmp_path):
    """Every provider failure degrades: the coder round-trips on numpy and the
    reason is one retrievable line."""
    not_a_directory = tmp_path / "regular-file"
    not_a_directory.write_text("")
    unwritable = tmp_path / "read-only"
    unwritable.mkdir()
    unwritable.chmod(0o500)
    if os.access(unwritable, os.W_OK):  # root ignores mode bits; /proc refuses even root
        unwritable = Path("/proc")
    plant_empty_library = (
        "from repro.core import gf_kernels\n"
        "library = gf_kernels._library_path()\n"
        "library.parent.mkdir(parents=True)\n"
        "library.touch()\n"
    )
    cases = {
        "disabled": ("", {gf_kernels.PROVIDER_ENV: "none"}),
        "cache under a regular file": ("", {"XDG_CACHE_HOME": str(not_a_directory)}),
        "failing compiler": ("", {"CC": "false"}),
        "missing compiler": ("", {"CC": "no-such-compiler-anywhere"}),
        "zero-byte cached library": (plant_empty_library, {}),
    }
    if unwritable.is_dir():
        cases["unwritable cache"] = ("", {"XDG_CACHE_HOME": str(unwritable)})
    for label, (prelude, env) in cases.items():
        output = _pristine(prelude + _ROUND_TRIP, tmp_path / label, **env)
        kernel, _, reason = output.partition(" | ")
        assert kernel == "numpy", (label, output)
        assert reason not in ("", "None") and "\n" not in reason, (label, output)


def test_resolution_is_lazy(tmp_path):
    """Importing the field and multiplying compile, load and decide nothing.

    (numpy itself imports ctypes, so ``sys.modules`` says nothing here.)
    """
    code = (
        "import repro\n"
        "from repro.core import gf_kernels\n"
        "from repro.core.gf import GF\n"
        "assert int(GF.multiply(0x57, 0x83)) == 0xC1\n"
        "assert GF.rank([[1, 2], [3, 4]]) == 2\n"
        "print(gf_kernels._resolution)\n"
    )
    assert _pristine(code, tmp_path) == "None"
    assert not (tmp_path / "cache").exists()
