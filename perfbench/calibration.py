"""How fast this machine runs right now, from a fixed calibration kernel.

On a shared host the same replication can run 1.6x slower for tens of
seconds at a time, because other tenants contend for the cores; CPU time
slows with wall time, so this is not descheduling. No run length averages
that away. The benchmark therefore times this kernel, which does not use
udnsync, just before and after every replication. It reports each time in
calibrated seconds, ``seconds * REFERENCE_S / kernel_seconds``: what the
time would be when the kernel takes ``REFERENCE_S``. A change to the
simulator cannot move the kernel, so it cannot move the scale either.
Raw wall figures are reported beside the calibrated ones.

The kernel mixes the two kinds of work a replication does: interpreter-
bound matching loops (keyed sorts, dict lookups, generator maxima over
a 10x10 table) and K x K numpy steps (exponential draws, thresholding,
row normalisation, a mat-vec) at K = 250.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# kernel seconds that define one calibrated second; the kernel took
# 4-6 ms on a shared 2-core Intel Xeon at 2.1 GHz
REFERENCE_S = 0.005
# Set-up time is calibrated by work of its own kind instead: a fresh
# interpreter's ``import numpy``, timed inside each set-up probe
# (``setup_probe.py``). These seconds of it define one calibrated second
# of set-up; the import took 0.13-0.18 s in the probes on the machine
# above.
IMPORT_REFERENCE_S = 0.15
_REPEATS = 3

_TABLE = [[(i * 7919 + j * 104729) % 1009 / 1009.0 for j in range(10)]
          for i in range(10)]
_SCALE = np.random.default_rng(0).random((250, 250))
_VECTOR = np.random.default_rng(1).random(250)


def _work() -> float:
    table = _TABLE
    best = 0.0
    for _ in range(6):
        prefs = [sorted(range(10), key=lambda s: (table[r][s], s))
                 for r in range(10)]
        holder: dict[int, int] = {}
        for r in range(10):
            for s in prefs[r]:
                if s not in holder:
                    holder[s] = r
                    break
        for a in range(10):
            for b in range(a + 1, 10):
                best = max(best, max((table[t][s] for s, t in holder.items()
                                      if t not in (a, b)), default=0.0))
    rng = np.random.default_rng(2)
    for _ in range(3):
        power = rng.exponential(1.0, size=_SCALE.shape) * _SCALE
        kept = np.where(power >= 0.3, power, 0.0)
        sums = kept.sum(axis=1, keepdims=True)
        weights = np.divide(kept, sums, out=np.zeros_like(kept), where=sums > 0)
        best += float((weights @ _VECTOR)[0])
    return best


def kernel_seconds() -> float:
    """Fastest of a few runs of the kernel, so one interrupt does not count."""
    fastest = float("inf")
    for _ in range(_REPEATS):
        start = perf_counter()
        _work()
        fastest = min(fastest, perf_counter() - start)
    return fastest
