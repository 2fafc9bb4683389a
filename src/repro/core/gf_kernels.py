"""The C provider for GF(2^8)'s two stacked loops.

:class:`~repro.core.gf.GF256` runs three hot loops.  Elementwise ``multiply``
is always the numpy table lookup: the data plane issues thousands of small
calls per round, which pay more ctypes marshalling than work.  The two
stacked loops — ``batched_matmul`` and the batched Gauss–Jordan elimination
of an augmented ``[A | R]`` stack, behind ``try_invert_matrices`` and
``solve`` — go to the C functions below whenever they
load on this host, and to the numpy reference in :mod:`repro.core.gf`
otherwise.  The two are required to be bit-identical (asserted by the
hypothesis property tests ``test_compiled_batched_matmul_*`` and
``test_compiled_inversion_*`` in ``tests/test_gf_kernels.py``), so which one
ran never shows in a result.

The C file is compiled once into a shared library cached under
``$XDG_CACHE_HOME/repro-information-slicing/`` (default ``~/.cache``, keyed
by a digest of the build recipe) and loaded through :mod:`ctypes`; set
``CC`` to override the compiler.  Nothing is compiled or loaded before the
first stacked call, and *any* failure on the way — no compiler, a failing
one, an unwritable cache directory, a damaged cached library — ends in the
numpy path with a one-line :func:`unavailable_reason`, never in an error.

The functions work on contiguous ``uint8`` stacks and take the field's
flattened 256x256 multiplication table (and the 256-entry inverse table) as
arguments, so non-default polynomials work unchanged.  Every pointer goes as
a ``c_void_p`` integer, ``array.ctypes.data``: about 1.3 µs an argument
where a typed ``POINTER(c_uint8)`` costs 2.9 µs, which is most of a call on
route setup's one-matrix stacks: a relay's 3x3 solve of 42-byte rows, one
elimination of a ``(1, 3, 45)`` stack, takes about 11 µs, where the 3x3
inversion and 3x3 by 3x42 product it replaced took about 14 and 13 µs,
Python 3.11 and numpy 2.4 on a 2-vCPU Xeon.  The environment
variable ``REPRO_GF_KERNEL_PROVIDER=none`` keeps the provider from ever
loading — how CI and the fallback tests exercise the numpy side on a host
with a compiler, and the escape hatch for a broken toolchain.  ``none`` is
the only accepted value.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .errors import FieldError

#: Environment variable whose one legal value, ``none``, disables the provider.
PROVIDER_ENV = "REPRO_GF_KERNEL_PROVIDER"


_C_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

void gf_batched_matmul(const uint8_t *a, const uint8_t *b, uint8_t *out,
                       ptrdiff_t batch, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n,
                       const uint8_t *mul) {
    for (ptrdiff_t s = 0; s < batch; s++) {
        const uint8_t *A = a + s * m * k;
        const uint8_t *B = b + s * k * n;
        uint8_t *O = out + s * m * n;
        for (ptrdiff_t i = 0; i < m; i++) {
            const uint8_t *arow = A + i * k;
            uint8_t *orow = O + i * n;
            for (ptrdiff_t j = 0; j < n; j++)
                orow[j] = 0;
            for (ptrdiff_t kk = 0; kk < k; kk++) {
                const uint8_t *mrow = mul + ((size_t)arow[kk] << 8);
                const uint8_t *brow = B + kk * n;
                for (ptrdiff_t j = 0; j < n; j++)
                    orow[j] ^= mrow[brow[j]];
            }
        }
    }
}

void gf_gauss_jordan(uint8_t *aug, uint8_t *singular,
                     ptrdiff_t batch, ptrdiff_t n, ptrdiff_t w,
                     const uint8_t *mul, const uint8_t *inv) {
    for (ptrdiff_t s = 0; s < batch; s++) {
        uint8_t *M = aug + s * n * w;
        uint8_t sing = 0;
        for (ptrdiff_t col = 0; col < n; col++) {
            /* First non-zero entry at or below the diagonal; stay on the
             * diagonal when the column is dead (matches argmax-of-zeros). */
            ptrdiff_t pivot = col;
            ptrdiff_t r;
            for (r = col; r < n; r++) {
                if (M[r * w + col] != 0) {
                    pivot = r;
                    break;
                }
            }
            if (r == n)
                sing = 1;
            if (pivot != col) {
                uint8_t *crow = M + col * w;
                uint8_t *prow = M + pivot * w;
                for (ptrdiff_t j = 0; j < w; j++) {
                    uint8_t t = crow[j];
                    crow[j] = prow[j];
                    prow[j] = t;
                }
            }
            /* Normalise via the pivot's inverse; substitute 1 for a zero
             * pivot so singular entries keep the reference's garbage. */
            uint8_t p = M[col * w + col];
            const uint8_t *nrow = mul + ((size_t)inv[p ? p : 1] << 8);
            uint8_t *crow = M + col * w;
            for (ptrdiff_t j = 0; j < w; j++)
                crow[j] = nrow[crow[j]];
            for (ptrdiff_t r2 = 0; r2 < n; r2++) {
                if (r2 == col)
                    continue;
                uint8_t f = M[r2 * w + col];
                if (f == 0)
                    continue;
                const uint8_t *frow = mul + ((size_t)f << 8);
                uint8_t *row = M + r2 * w;
                for (ptrdiff_t j = 0; j < w; j++)
                    row[j] ^= frow[crow[j]];
            }
        }
        singular[s] = sing;
    }
}
"""


#: Flags the C provider is always built with (part of the cache digest).
_CFLAGS = ("-O3", "-fPIC", "-shared")


def _library_path() -> Path:
    """Where this build recipe's shared library lives in the cache directory."""
    compiler = os.environ.get("CC", "cc")
    # The digest covers the *whole* build recipe — source, compiler and
    # flags — so any change to it invalidates the cached .so instead of
    # silently reusing a library built under a different recipe.
    recipe = "\0".join([_C_SOURCE, compiler, *_CFLAGS])
    digest = hashlib.sha256(recipe.encode("utf-8")).hexdigest()[:16]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    return cache / "repro-information-slicing" / f"gf_kernels_{digest}.so"


def _compile_shared_library() -> Path:
    """Compile the C provider into the cache directory, reusing prior builds."""
    library = _library_path()
    if library.is_file():
        return library
    library.parent.mkdir(parents=True, exist_ok=True)
    source = library.with_suffix(".c")
    source.write_text(_C_SOURCE, encoding="utf-8")
    with tempfile.NamedTemporaryFile(
        dir=library.parent, suffix=".so", delete=False
    ) as handle:
        temporary = Path(handle.name)
    try:
        subprocess.run(
            [os.environ.get("CC", "cc"), *_CFLAGS, "-o", str(temporary), str(source)],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(temporary, library)  # atomic: concurrent builders race safely
    finally:
        temporary.unlink(missing_ok=True)
    return library


class CProvider:
    """The two stacked loops as C functions loaded through ctypes.

    All arrays are C-contiguous ``uint8``.  ``mul`` is the flattened
    256x256 multiplication table (``mul[a * 256 + b] == a * b``), ``inv``
    the 256-entry inverse table with ``inv[0] == 0``.
    """

    def __init__(self, library: Path) -> None:
        self._lib = ctypes.CDLL(str(library))
        pointer, size = ctypes.c_void_p, ctypes.c_ssize_t
        self._lib.gf_batched_matmul.restype = None
        self._lib.gf_batched_matmul.argtypes = [
            pointer, pointer, pointer, size, size, size, size, pointer,
        ]
        self._lib.gf_gauss_jordan.restype = None
        self._lib.gf_gauss_jordan.argtypes = [
            pointer, pointer, size, size, size, pointer, pointer,
        ]

    def batched_matmul(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray, mul: np.ndarray
    ) -> None:
        """``(B, m, k) @ (B, k, n) -> (B, m, n)`` into ``out``."""
        batch, m, k = a.shape
        n = b.shape[2]
        self._lib.gf_batched_matmul(
            a.ctypes.data, b.ctypes.data, out.ctypes.data, batch, m, k, n, mul.ctypes.data
        )

    def gauss_jordan(
        self, aug: np.ndarray, singular: np.ndarray, mul: np.ndarray, inv: np.ndarray
    ) -> None:
        """In-place Gauss–Jordan over an augmented ``(B, n, w)`` stack, ``w >= n``.

        Mirrors ``GF256._eliminate`` exactly (pivot choice, the safe-pivot
        substitution for singular entries, elimination order) so even the
        garbage rows of singular entries stay bit-identical.  ``singular``
        is a ``(B,)`` uint8 output mask.
        """
        batch, n, w = aug.shape
        self._lib.gf_gauss_jordan(
            aug.ctypes.data, singular.ctypes.data, batch, n, w, mul.ctypes.data, inv.ctypes.data
        )


#: ``(provider or None, reason or None)`` once resolved; ``None`` until the
#: first :func:`load_provider` call of this process.
_resolution: tuple[CProvider | None, str | None] | None = None


def _resolve() -> tuple[CProvider | None, str | None]:
    setting = os.environ.get(PROVIDER_ENV, "").strip().lower()
    if setting == "none":
        return None, f"disabled by {PROVIDER_ENV}=none"
    if setting:
        raise FieldError(
            f"unknown {PROVIDER_ENV} value {setting!r}; the only accepted value is 'none'"
        )
    try:
        return CProvider(_compile_shared_library()), None
    except (OSError, RuntimeError, subprocess.CalledProcessError) as error:
        # No or failing compiler, no home directory, unwritable cache,
        # truncated or foreign-architecture cached library: numpy it is.
        stderr = (getattr(error, "stderr", None) or "").strip()
        detail = stderr.splitlines()[0] if stderr else error
        return None, f"{type(error).__name__}: {detail}"


def load_provider() -> CProvider | None:
    """The C provider, or ``None`` when it cannot (or must not) load here.

    Resolved on the first call and cached for the life of the process,
    success or failure alike.
    """
    global _resolution
    if _resolution is None:
        _resolution = _resolve()
    return _resolution[0]


def unavailable_reason() -> str | None:
    """One line on why :func:`load_provider` returns ``None``, else ``None``."""
    load_provider()
    return _resolution[1]
