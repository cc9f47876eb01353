"""Tests of the benchmark's speed probe.

    python3 -m pytest bench/test_speed.py -q
"""

from __future__ import annotations

import signal
from time import perf_counter

from speed import REF_CHUNK_S, WINDOW_S, SpeedProbe


def test_scale_uses_the_median_chunk_near_the_call():
    probe = SpeedProbe()
    probe.stamps = [1.0, 2.0, 2.05, 2.1, 5.0]
    probe.chunks = [9.0, 2 * REF_CHUNK_S, 4 * REF_CHUNK_S, 2 * REF_CHUNK_S, 9.0]
    assert probe.scale(2.0 + WINDOW_S / 2, 2.0 + WINDOW_S / 2) == 0.5
    assert probe.scale(3.0, 4.0) == 1.0  # no chunk ran near the call


def test_probe_runs_chunks_and_stops_its_timer():
    probe = SpeedProbe()
    with probe:
        start = perf_counter()
        while perf_counter() - start < 0.3:
            sum(range(1000))
    assert len(probe.chunks) >= 5
    assert probe.spent == sum(probe.chunks) < perf_counter() - start
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
