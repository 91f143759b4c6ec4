"""Host speed reference: a fixed kernel timed all through a measurement.

The benchmark runs on a virtual machine whose host speed drifts by up to
60% within a second, in CPU time as much as in wall time (it is not steal
time), so raw pass times of the same code spread past any useful bound.
The drift slows this kernel and the program alike: the ratio of a step's
time to the kernel's time around it stays within a few percent.

`Clock` samples the kernel every INTERVAL_S of wall time, from a SIGALRM
handler in the measured process itself, and counts program time in
normalized seconds: each stretch between two samples is scaled by
REFERENCE_S over the kernel time sampled at its start, which gives the
time the stretch would take on a host where the kernel takes REFERENCE_S.
The samples themselves are left out of both clocks.  The kernel depends on
nothing in waring, so a change to the program moves its normalized time
and not the kernel's.

`probe()` and `normalize()` do the same for a step run in another process
(set-up), from samples taken just before and just after it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the kernel's median time on a quiet moment of the 2-core virtual
# machine the benchmark was defined on; a fixed scale, never re-measured
REFERENCE_S = 0.0040
REPEATS = 3
INTERVAL_S = 0.05

_rng = np.random.default_rng(12345)
_INTS = _rng.integers(0, 1 << 40, size=8192)
_FLOATS = _rng.random(4096)


def _kernel() -> int:
    # interpreted integer and dict work, like the counting layers ...
    acc, seen = 0, {}
    for i in range(15000):
        v = (i * i * i + acc) % 65521
        seen[v] = seen.get(v, 0) + 1
        acc += v
    # ... and numpy sorting and transforms on arrays that fit in L2
    np.sort(_INTS)
    np.fft.rfft(_FLOATS)
    return acc + len(seen)


def _kernel_seconds() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def probe() -> float:
    """Kernel time now, in seconds: the median of REPEATS timings."""
    return statistics.median(_kernel_seconds() for _ in range(REPEATS))


def normalize(raw_s: float, before: float, after: float) -> float:
    """raw_s as it would read on a host where the kernel takes REFERENCE_S."""
    return raw_s * REFERENCE_S / ((before + after) / 2)


class Clock:
    """Program time in this process, raw and normalized, samples left out.

    Only one Clock may run at a time, in the main thread.  A sample waits
    for the running bytecode, so a long call into C code is one stretch,
    scaled by the sample taken before it.
    """

    def __init__(self):
        self._running = False
        self._raw = self._normed = 0.0
        self._mark = 0.0          # perf_counter at the start of this stretch
        self._scale = 1.0         # REFERENCE_S / kernel time of the stretch
        self.samples = 0

    def _close_stretch(self) -> float:
        now = time.perf_counter()
        self._raw += now - self._mark
        self._normed += (now - self._mark) * self._scale
        return now

    def _sample(self, *_) -> None:
        if not self._running:
            return
        self._running = False     # a signal during the sample is dropped
        self._close_stretch()
        self._scale = REFERENCE_S / _kernel_seconds()
        self.samples += 1
        self._running = True
        self._mark = time.perf_counter()

    def start(self) -> None:
        self._scale = REFERENCE_S / probe()
        signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._close_stretch()
        self._running = False
        # the handler stays installed: a signal already pending is ignored

    def _read(self, total: str, scaled: bool) -> float:
        # a sample may run between any two bytecodes here; read again
        # until none did, so that the clock never goes back
        while True:
            seen = self.samples
            value = getattr(self, total)
            if self._running:
                value += (time.perf_counter() - self._mark) * (self._scale if scaled else 1)
            if self.samples == seen:
                return value

    def now(self) -> float:
        """Normalized seconds of program time since the first start()."""
        return self._read("_normed", True)

    def raw_now(self) -> float:
        """Wall seconds of program time since the first start(), samples left out."""
        return self._read("_raw", False)
