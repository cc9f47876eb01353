"""Wall time rescaled to a fixed machine speed.

The benchmark runs on shared hosts whose speed drifts by 20-60% over
phases of seconds to minutes, for every process alike, so a raw wall time
mostly measures the neighbours.  `SpeedProbe` runs a fixed piece of
pure-Python work (a *chunk*) from a timer signal every `INTERVAL_S` seconds
while the timed calls run, and records how long each chunk took.  A call's
wall time, minus the chunks run inside it, is then scaled by `REF_CHUNK_S`
over the median chunk time around the call: the result is the call's wall
time on a machine where a chunk takes `REF_CHUNK_S`.  The program never
runs the chunk, so a change to the program moves the scaled time exactly as
it moves the wall time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from itertools import permutations
from time import perf_counter

INTERVAL_S = 0.02
REF_CHUNK_S = 0.001  # about a chunk's time on a quiet 2.1 GHz Xeon core, Python 3.11
WINDOW_S = 0.1  # chunks this close to a call's ends set its speed


def _image(t, mapping):
    image = sorted(mapping.get(c, c) for c in t)
    return tuple(image), len(set(image))


def _chunk_work(table: dict) -> int:
    """Integer and dict steps, then small calls, sorts, tuples, sets and
    permutations: the mix tracks the program better than either half."""
    s = 0
    for i in range(2000):
        s = (s + i * i) % 1000003
        table[s & 511] = s
    mapping = {1: 3, 2: 1, 5: 2}
    for i in range(200):
        t = (i % 7, i * 3 % 11, i * 5 % 13)
        image, size = _image(t, mapping)
        s += size + image[0]
        for p in permutations(t[:2]):
            s += p[0]
    return s


class SpeedProbe:
    def __init__(self):
        self.stamps: list[float] = []  # end of each chunk
        self.chunks: list[float] = []  # duration of each chunk
        self.spent = 0.0  # time spent in chunks so far
        self._table = dict.fromkeys(range(512), 0)

    def _chunk(self, signum, frame):
        # No collection inside a chunk: it would time the program's garbage.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _chunk_work(self._table)
        end = perf_counter()
        if enabled:
            gc.enable()
        self.stamps.append(end)
        self.chunks.append(end - start)
        self.spent += end - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._chunk)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REF_CHUNK_S over the median chunk time within WINDOW_S of
        [start, end]; 1.0 if no chunk ran there."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if lo == hi:
            return 1.0
        return REF_CHUNK_S / statistics.median(self.chunks[lo:hi])
