"""Times at a reference machine speed.

The machine the benchmark was built on runs the same code at speeds that
differ by up to 2x from one pass of a short loop to the next, on each
processor on its own, and by up to 1.5x in the mean from one minute to the
next.  A process's CPU time swings with its wall time.  So while a run
measures, a child process pinned to the processor the work is pinned to
repeats a fixed reference loop and records how long each pass takes; a
timed interval is reported at the reference speed:

    measured seconds x REF_S / (mean seconds of the passes made meanwhile)

The loop is the kind of work that takes most of wedflow's solve time: a
Python loop of small-array numpy calls.  Of the loops tried (this one,
vector arithmetic on 4000 nodes, 16 x 16 inversions, pure-Python
arithmetic), it tracked the solve times best.  It does not call wedflow, so
no change to the program can move it.  REF_S is about its time on that
machine in a typical state, so scaled times read close to the seconds
measured there.

Run as a script, this module is the sampler:

    python3 perfbench/speed.py FILE   # appends (time, seconds) pairs until stopped
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REF_S = 0.002
PAUSE_S = 0.02  # between passes: the sampler keeps its processor about 1/8 busy
MIN_PASSES = 8  # a window with fewer passes borrows the nearest ones

_SMALL = np.arange(3.0)


def reference() -> float:
    """Thread CPU seconds of one pass of the reference loop.

    Thread CPU time leaves out the time the sampler waits for a processor,
    so it measures how fast the processors run, not how busy the timed
    work keeps them.
    """
    t0 = time.thread_time()
    total = 0
    for i in range(2000):
        b = np.zeros((2, 2))
        b[0, 0] = _SMALL[1] * 3.0 - 1.0
        _SMALL @ _SMALL
        total += i * i
    return time.thread_time() - t0


class Clock:
    """Seconds spent in timed calls, and the window they fall in."""

    def __init__(self):
        self.seconds = 0.0
        self.start = time.monotonic()
        self.end = self.start

    def call(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - t0
            self.end = time.monotonic()


class Sampler:
    """The reference loop in a child process pinned to processor ``cpu``,
    for as long as a run measures.

    The processors' speeds swing apart for seconds at a time, so a pass
    tells the speed of the processor it ran on only: the timed work runs
    pinned to the same processor.
    """

    def __init__(self, path: Path, cpu: int):
        self.path = path
        path.write_bytes(b"")
        self.proc = subprocess.Popen([sys.executable, __file__, str(path)])
        try:
            os.sched_setaffinity(self.proc.pid, {cpu})
            deadline = time.monotonic() + 60.0
            while path.stat().st_size < 16 * MIN_PASSES:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the speed sampler did not start")
                time.sleep(0.05)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()

    def scaled(self, clocks: list) -> list:
        """Each clock's seconds at the reference speed."""
        data = np.fromfile(self.path, dtype=np.float64)
        data = data[: data.size // 2 * 2].reshape(-1, 2)
        stamps, passes = data[:, 0], data[:, 1]
        out = []
        for c in clocks:
            inside = (stamps >= c.start) & (stamps <= c.end)
            if inside.sum() < MIN_PASSES:
                mid = 0.5 * (c.start + c.end)
                inside = np.argsort(np.abs(stamps - mid))[:MIN_PASSES]
            out.append(c.seconds * REF_S / float(np.mean(passes[inside])))
        return out


def _sample(path: str) -> None:
    """Append passes to ``path`` until killed, or until the benchmark that
    started this process is gone."""
    parent = os.getppid()
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    while os.getppid() == parent:
        t0 = time.monotonic()
        seconds = reference()
        stamp = 0.5 * (t0 + time.monotonic())
        os.write(fd, np.array([stamp, seconds]).tobytes())
        time.sleep(PAUSE_S)


if __name__ == "__main__":
    _sample(sys.argv[1])
