"""GF(2^8) microbenchmark: the two C loops vs. their numpy reference.

The two stacked field operations :class:`~repro.core.gf.GF256` hands to the C
provider are timed on shapes chosen to show it at its best — a 64-matrix
``batched_matmul`` (64 x (8, 4) coding matrices applied to (4, 65) payload
blocks) and the batched Gauss–Jordan inverse of 64 stacked (4, 4) matrices —
once through ``GF256(compiled=False)`` and once through the field every run
uses.  Every output array must be bit-identical on every repetition.

These are **not** the data plane's call mix: one ``slicing-churn`` perfbench
round issues 104 ``batched_matmul`` and 88 Gauss–Jordan calls, mostly on far
smaller operands (and 5192 elementwise ``multiply`` calls, which is why that
loop stays on numpy), so the ratio measured here (gate target in
:data:`repro.experiments.bench_history.GATES`) is a loop-level number and
says little about end-to-end goodput — see "Compiled kernels" in
docs/ARCHITECTURE.md for the end-to-end pairs.

When the provider does not load (no C toolchain, unwritable cache, or
``REPRO_GF_KERNEL_PROVIDER=none``) the rows carry the loader's reason under
``"skipped"`` instead of timings, and the benchmark gate reports ``n/a``
rather than failing.
"""

from __future__ import annotations

import numpy as np

from ..core import gf_kernels
from ..core.gf import GF, GF256
from .timing import compare_paths

#: Batched operations the benchmark times: ``matmul`` is 64 x (8, 4) coding
#: matrices applied to (4, 65) payload blocks; ``invert`` is the batched
#: Gauss–Jordan over 64 stacked (4, 4) candidate matrices.
GFBENCH_OPS = ("matmul", "invert")

GFBENCH_BATCH = 64
GFBENCH_MATMUL_SHAPES = ((GFBENCH_BATCH, 8, 4), (GFBENCH_BATCH, 4, 65))
GFBENCH_INVERT_SHAPE = (GFBENCH_BATCH, 4, 4)

#: Calls per timed repetition: one call is only a few hundred microseconds,
#: so each repetition times a small loop to keep the per-rep minimum well
#: clear of timer granularity (``reference_ms`` / ``fast_ms`` are per loop).
GFBENCH_CALLS_PER_REP = 20


def _workload(op: str, seed: int) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(seed)
    if op == "matmul":
        a_shape, b_shape = GFBENCH_MATMUL_SHAPES
        return (
            rng.integers(0, 256, size=a_shape, dtype=np.uint8),
            rng.integers(0, 256, size=b_shape, dtype=np.uint8),
        )
    if op == "invert":
        stacks = rng.integers(0, 256, size=GFBENCH_INVERT_SHAPE, dtype=np.uint8)
        # Force a few singular members so the benchmark covers the decoder's
        # rejection path (and the bit-identity check covers it too).
        stacks[:4] = 0
        stacks[4, :, 0] = stacks[4, :, 1]
        return (stacks,)
    raise ValueError(f"unknown gfbench op {op!r} (known: {', '.join(GFBENCH_OPS)})")


def _run_op(field, op: str, arrays: tuple[np.ndarray, ...]):
    if op == "matmul":
        return (field.batched_matmul(arrays[0], arrays[1]),)
    inverses, singular = field.try_invert_matrices(arrays[0])
    return inverses, singular


def compare_kernels(op: str, reps: int = 3, seed: int = 42) -> dict:
    """Time ``op`` on the numpy reference and on the C loop; returns the row.

    One timed repetition is :data:`GFBENCH_CALLS_PER_REP` calls; bit-identity
    of the C outputs against the numpy reference is re-checked on every
    repetition, so a C loop that drifts reports ``identical: False`` next to
    whatever speedup it bought.

    Returns a ``{..., "skipped": reason}`` row instead when the provider
    does not load on this host.
    """
    reason = gf_kernels.unavailable_reason()
    if reason is not None:
        return {"seed": seed, "op": op, "skipped": reason}
    arrays = _workload(op, seed)

    def loop(field):
        def run():
            for _ in range(GFBENCH_CALLS_PER_REP):
                outputs = _run_op(field, op, arrays)
            return outputs

        return run

    return {
        "seed": seed,
        "op": op,
        "batch": GFBENCH_BATCH,
        "calls_per_rep": GFBENCH_CALLS_PER_REP,
        **compare_paths(loop(GF256(compiled=False)), loop(GF), reps),
    }
