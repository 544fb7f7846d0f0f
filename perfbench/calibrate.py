"""Timing with machine-speed calibration.

On a shared host, neighbouring load slows the CPU by up to 2x in phases that
last from one to several seconds, which no number of iterations averages
away.  :class:`SpeedSampler` times a block and, while it runs, interrupts it
every ``INTERVAL_S`` (``SIGALRM``, same thread) to time a ~2 ms probe kernel
that does not touch the program.  The block's seconds, net of the probes,
are then reported at the reference speed:
``(elapsed - probe time) * REFERENCE_S / median(probe seconds)``.

Neighbouring load slows Python object churn and NumPy matrix products by
different amounts, so each workload names the kernel that resembles its own
work (``KERNELS``): the serving simulator is mostly Python, the
sparse-attention sweep mostly NumPy.  On a shared 2-core VM, rescaling
``sparse-accuracy`` by the NumPy kernel and ``fleet-fifo`` by the Python
kernel cut their per-run spread by 40-55% against the other kernel.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

__all__ = ["KERNELS", "REFERENCE_S", "SpeedSampler", "Stopwatch", "speed_factor"]

#: Seconds either probe kernel takes at the reference machine speed.
REFERENCE_S = 0.002
#: Seconds between probes inside a timed block.
INTERVAL_S = 0.2
#: Probe samples a speed factor is the median of, at least.
MIN_SAMPLES = 10


class _Record:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight


def _python_work() -> None:
    """Object churn, sorting and hashing, like the simulator's own."""
    records = [_Record(i, (i * 2654435761) % 100003) for i in range(3000)]
    records.sort(key=lambda r: r.weight)
    index = {r.weight: r for r in records}
    total = 0
    for i in range(0, 3000, 2):
        record = index.get((i * 2654435761) % 100003)
        if record is not None:
            total += record.key


#: The NumPy kernel's operands, made on its first use.
_MATRICES: list = []


def _numpy_work() -> None:
    """64x64 matrix products and softmaxes, like the attention kernels'."""
    import numpy as np

    if not _MATRICES:
        _MATRICES.extend(np.random.default_rng(0).standard_normal((2, 64, 64)))
    a, b = _MATRICES
    x = a
    for _ in range(33):
        scores = x @ b
        scores = np.exp(scores - scores.max(axis=1, keepdims=True))
        x = (scores / scores.sum(axis=1, keepdims=True)) @ a


KERNELS = {"python": _python_work, "numpy": _numpy_work}


def _probe(kernel: str) -> float:
    """Seconds one run of ``kernel`` takes.

    The garbage collector is off while it runs, so its time does not grow
    with the heap of the program it interrupts.
    """
    work = KERNELS[kernel]
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    work()
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def speed_factor(kernel: str, samples: list[float] | None = None) -> float:
    """Multiply seconds by this to express them at the reference speed.

    ``samples`` are topped up to ``MIN_SAMPLES`` probes taken now; a block
    too short for that many gets the rest right after it, within the same
    phase.
    """
    samples = list(samples or [])
    while len(samples) < MIN_SAMPLES:
        samples.append(_probe(kernel))
    return REFERENCE_S / statistics.median(samples)


class Stopwatch:
    """Times a ``with`` block: ``elapsed`` seconds afterwards."""

    elapsed = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


class SpeedSampler(Stopwatch):
    """A stopwatch that samples machine speed inside the block it times.

    ``elapsed`` excludes the time spent probing; ``factor`` converts it to
    seconds at the reference speed.
    """

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.factor = 1.0
        self._samples: list[float] = []
        self._spent = 0.0

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(_probe(self.kernel))
        self._spent += time.perf_counter() - start

    def __enter__(self):
        self._samples, self._spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        super().__enter__()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S / 2, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        super().__exit__(*exc)
        signal.signal(signal.SIGALRM, self._previous)
        self.elapsed -= self._spent
        self.factor = speed_factor(self.kernel, self._samples)
