"""Machine-speed sampling, to take shared-host contention out of op times.

On a shared host the same op can take 1.5x as long when neighbours are
busy, for stretches of seconds to minutes.  A sample is the time of a
fixed slice of interpreter and numpy work.  Samples are never taken
inside the benchmark process while an op runs, so the op's own cache and
memory state do not enter them.  There are two ways to sample:

- Bursts (``SpeedSampler(host=False)``): after each op or set-up, and
  before the first, ``between()`` times a burst of ``BURST`` slices in
  the benchmark process itself, which runs where the op ran.  Used
  for ops of milliseconds, where they track the op's speed best.
- A host sampler (``SpeedSampler(host=True)``): a process of its own
  times the slice every ``PERIOD`` seconds while the ops run.  Used for
  ops of seconds: on the 2-core Xeon the benchmark was tuned on, bursts at
  the edges of a 10 s op left its time spread wider than no
  normalization did, while these samples, taken all through the op, cut
  it to a third.  An op that used a second core would slow this sampler
  too, so a change that makes such ops multi-threaded must be judged by
  the as-measured times as well.

An op that runs worker processes is reported as measured: no sample sees
the cores as its workers do.

A normalized time is the measured time times ``REFERENCE_S`` over the
median sample taken during it (or, when fewer than ``NEAREST`` were, over
the ``NEAREST`` samples nearest to it in time).  Normalized times read as
seconds on a host where the slice takes ``REFERENCE_S``; they move with
vbfkit's speed, not with the neighbours' load.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

PERIOD = 0.02
BURST = 8
NEAREST = 2 * BURST
REFERENCE_S = 2.0e-4  # typical time of the slice on the 2-core Xeon it was tuned on

_ARR = np.arange(8192, dtype=np.int64)


def _slice() -> None:
    acc = 0
    for i in range(1500):
        acc ^= (i * i) >> 3
    np.bincount((_ARR * 7 ^ _ARR >> 3) & 255)


def _timed_slice() -> tuple[float, float]:
    t0 = time.perf_counter()  # CLOCK_MONOTONIC: the same clock in every process
    _slice()
    return t0, time.perf_counter() - t0


def _sample(parent: int) -> None:
    """The sampler process: time the slice every PERIOD seconds until sent
    SIGTERM, then print the samples as (start, seconds) pairs.  It also
    stops, printing nothing, if the benchmark process dies."""
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    print("ready", flush=True)
    samples = []
    while not stop:
        time.sleep(PERIOD)
        if os.getppid() != parent:
            return
        samples.append(_timed_slice())
    json.dump(samples, sys.stdout)


class SpeedSampler:
    """Samples, in time order, for the duration of a ``with`` block."""

    def __init__(self, host: bool):
        self.host = host
        self.samples: list[tuple[float, float]] = []
        self._proc = None

    def between(self) -> None:
        """Called after each timed op or set-up."""
        if not self.host:
            self.samples.extend(_timed_slice() for _ in range(BURST))

    def __enter__(self):
        if not self.host:
            self.between()
            return self
        self._proc = subprocess.Popen(
            [sys.executable, "-B", __file__, str(os.getpid())],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("the speed sampler did not start")
        return self

    def __exit__(self, *exc) -> None:
        if not self.host:
            return
        self._proc.terminate()
        out, _ = self._proc.communicate()
        if self._proc.returncode != 0:
            raise RuntimeError(f"the speed sampler exited {self._proc.returncode}")
        self.samples = [tuple(s) for s in json.loads(out)]

    def normalizer(self):
        """A function mapping a (start, end) to normalized seconds."""
        times = [t for t, _ in self.samples]
        secs = [d for _, d in self.samples]

        def normalize(t0: float, t1: float) -> float:
            inside = secs[bisect.bisect_left(times, t0):bisect.bisect_left(times, t1)]
            if len(inside) < NEAREST:
                mid = bisect.bisect_left(times, (t0 + t1) / 2)
                a = max(0, min(mid - NEAREST // 2, len(times) - NEAREST))
                inside = secs[a:a + NEAREST]
            if not inside:
                return t1 - t0
            return (t1 - t0) * REFERENCE_S / statistics.median(inside)

        return normalize


if __name__ == "__main__":
    _sample(int(sys.argv[1]))
