"""How fast this core runs right now, from a fixed calibration kernel.

The reference host is a 2-vCPU virtual machine whose cores run about 1.6
times slower, for fractions of a second to minutes at a time, while a
neighbour is busy: process CPU time rises with wall time and
``host.steal_share`` stays at zero, so it is not descheduling, and the
median round time of identical back-to-back runs moved by 20-40 %, which no
bound could tell from a slower program.  Compute-bound interpreter code
slows by about the same factor whatever it computes, so the benchmark times
a small fixed kernel of that kind (SHA-256 over short inputs and a dict
loop) at every phase boundary and from a 25 ms timer in between, and divides
each timed phase by the mean slowdown it saw.  The gated time metrics are
therefore *calibrated* seconds — wall-clock seconds on the reference host
while it is undisturbed — and the raw values are printed next to them
(``driver.raw_*``, ``host.slowdown_p50``).  The kernel's own time is taken
out of everything that is reported.
"""

from __future__ import annotations

import hashlib
import signal
import struct
import time
from contextlib import nullcontext

#: Seconds the kernel takes on the reference host while its neighbours are
#: quiet (2.1 GHz Xeon, CPython 3.11; the fastest single reading was 1.6 ms).
REFERENCE_SECONDS = 0.0018

#: Wall seconds between two timer samples; the kernel then costs about a
#: tenth of the wall time, none of it reported.
INTERVAL_SECONDS = 0.025


def slowdown() -> float:
    """Kernel time now over its reference time; 1.0 on the undisturbed reference host."""
    start = time.perf_counter()
    prefix = b"k" * 32 + b"n" * 8
    for counter in range(1500):
        hashlib.sha256(prefix + struct.pack(">Q", counter)).digest()
    table: dict[int, int] = {}
    for index in range(10000):
        table[index & 255] = table.get(index & 255, 0) + index
    return (time.perf_counter() - start) / REFERENCE_SECONDS


class HostSpeed:
    """The slowdown samples of one run, in the order they were taken.

    Samples are taken on the main thread only — on request and, between
    :meth:`start` and :meth:`stop`, from a ``SIGALRM`` interval timer, whose
    handler Python runs between two bytecodes of whatever is executing.
    """

    def __init__(self) -> None:
        #: (start, end, slowdown) of every kernel execution.
        self.samples: list[tuple[float, float, float]] = []
        #: Set for the traced pass, so kernel time stays out of the layers' self time.
        self.tracer = None
        self._sampling = False

    def sample(self, *_signal_arguments) -> int:
        """Time the kernel now; returns the index of the new sample."""
        if self._sampling:
            return -1  # the timer fired inside a requested sample: that one will do
        self._sampling = True
        try:
            with self.tracer.span("host/calibration") if self.tracer else nullcontext():
                start = time.perf_counter()
                value = slowdown()
                self.samples.append((start, time.perf_counter(), value))
        finally:
            self._sampling = False
        return len(self.samples) - 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_SECONDS, INTERVAL_SECONDS)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, first: int, start: float, end: float) -> tuple[float, float]:
        """Over the samples from index ``first`` on: the kernel seconds spent
        inside ``[start, end]`` and the mean slowdown."""
        taken = self.samples[first:]
        kernel_s = sum(done - begun for begun, done, _ in taken if begun >= start and done <= end)
        return kernel_s, sum(value for _, _, value in taken) / len(taken)
