"""Host-speed probe of the circuitkit benchmark, standard library only.

The shared host this benchmark runs on changes speed by up to about 1.8x
every few seconds, for every process alike (NOTES.md, "Host drift").  So
that a run measures the program and not the host's neighbours, every timed
interval is scaled to a fixed reference speed by probes taken just before
and just after it: `probe_ms` times a fixed piece of exact rational
elimination (the benchmark's own `gen.rref`, independent of circuitkit),
and an interval of t ms between probes p0 and p1 reads
t * PROBE_REF_MS / ((p0 + p1) / 2).
"""

from __future__ import annotations

import random
import time

from gen import rref

PROBE_REF_MS = 8.0  # about the probe's time on a 2-core Xeon VM when the host is quiet
PROBE_REPS = 6
_rng = random.Random("perfbench/probe")
PROBE_ROWS = [[_rng.randint(-3, 3) for _ in range(10)] for _ in range(7)]


def probe_ms() -> float:
    t0 = time.perf_counter()
    for _ in range(PROBE_REPS):
        rank, _, _ = rref(PROBE_ROWS)
    if rank != 7:
        raise RuntimeError("probe matrix lost full rank")
    return (time.perf_counter() - t0) * 1000.0


def scale(before: float, after: float) -> float:
    """The factor that maps an interval between these probes to the
    reference speed."""
    return PROBE_REF_MS / ((before + after) / 2.0)
