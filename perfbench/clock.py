"""Times a call at reference speed, from speed samples taken during it.

The host's speed swings by up to 30% within seconds and drifts between runs.
Probes taken between operations did not track it: ree-* pass times still
spread 0.19-0.25 over ten runs, and probe-normalized cli-fast pass times
spread more than the raw ones. So the timed process samples its own speed
while it works. An interval timer interrupts it every SAMPLE_PERIOD_S and
runs speed_sample(), a fixed computation of about SAMPLE_REF_S that mixes
interpreter work with the solver's kind of array work, twice: the first run
refills the caches the interrupted work evicted, and only the second is
timed, so a sample's time does not depend on the program's memory use (cold,
it took 0.44 ms inside table1 against 0.17 ms warm). Each stretch of work
between samples is scaled by SAMPLE_REF_S over the timed duration of the
sample that ends it. The samples see the same core at the same moments as
the work. Over seven ree-xstate passes in one process whose wall times
spread 0.33, the scaled times spread 0.03. Sample time is left out of both
times.

Child processes inherit no interval timer, so the harness's Monte Carlo pool
workers run unsampled; the waiting parent's samples measure the speed
meanwhile.
"""

from __future__ import annotations

import signal
import time

import numpy as np

SAMPLE_PERIOD_S = 0.02
SAMPLE_REF_S = 0.0002

_rng = np.random.default_rng(0)
_KETS = _rng.normal(size=(64, 4)) + 1j * _rng.normal(size=(64, 4))
_KETS /= np.linalg.norm(_KETS, axis=1, keepdims=True)
_PROJS = np.einsum("ki,kj->kij", _KETS, _KETS.conj())
_WEIGHTS = np.full(len(_PROJS), 1 / len(_PROJS))


def speed_sample() -> None:
    """Interpreter work plus mixing 64 projectors, a 4x4 eigensolve and scoring, six times."""
    acc = 0
    for i in range(300):
        acc += i * i
    for _ in range(6):
        sigma = np.tensordot(_WEIGHTS, _PROJS, axes=1)
        np.linalg.eigh(sigma)
        np.einsum("kij,ji->k", _PROJS, sigma)


class SampledClock:
    """Times one call at a time; ``samples`` holds the last call's samples."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, duration, timed duration)

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        speed_sample()  # warms the caches the interrupted work evicted; untimed
        timed = time.perf_counter()
        speed_sample()
        end = time.perf_counter()
        self.samples.append((start, end - start, end - timed))

    def time(self, call):
        """Returns (call's result, wall seconds without samples, seconds at reference speed)."""
        self.samples.clear()
        previous = signal.signal(signal.SIGALRM, self._sample)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        self._sample()  # ends the stretch after the last timed sample
        wall, scaled, mark = end - start, 0.0, start
        for at, took, speed in self.samples:
            scaled += max(0.0, min(at, end) - mark) * SAMPLE_REF_S / speed
            if at < end:
                wall -= took
            mark = max(mark, at + took)
        return result, wall, scaled
