"""How fast the machine runs right now, from a fixed reference workload.

On a shared machine the same code runs up to 1.4x faster or slower from
one minute to the next, for longer than a run, so more passes per run
do not remove it. ``probe`` times a small fixed workload of the
benchmark's own that calls nothing of the program and writes only into
arrays it allocated at import, so the program's state hardly touches
its speed: a Python interpreter loop, small numpy calls (the per-node
cost of a tree traversal), a small matrix product and a streaming pass
over memory.
A pass probes before every method run; ``factor`` turns the pass's
seconds into seconds at the reference machine's speed.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Median time of each part of ``probe`` on the reference machine (a
#: shared 4-core Xeon VM, one BLAS thread), in seconds.
REFERENCE_S = {"py": 0.00316, "np": 0.00330, "blas": 0.00793, "mem": 0.00306}

_rng = np.random.default_rng(0)
_LIST = list(range(1024))
_SMALL = _rng.normal(size=(16, 2))
_SMALL_OUT = np.empty((16, 2))
_ROW_OUT = np.empty(16)
_A = _rng.normal(size=(400, 57))
_B = _rng.normal(size=(57, 100))
_AB = np.empty((400, 100))
_STREAM = _rng.normal(size=1_000_000)   # 8 MB, past the caches
_STREAM_OUT = np.empty_like(_STREAM)


def _py() -> None:
    acc = 0
    for i in range(25_000):
        acc = (acc * 31 + _LIST[i & 1023]) & 0xFFFF


def _np() -> None:
    for _ in range(400):
        np.subtract(_SMALL, _SMALL[3], out=_SMALL_OUT)
        np.multiply(_SMALL_OUT, _SMALL_OUT, out=_SMALL_OUT)
        np.sum(_SMALL_OUT, axis=1, out=_ROW_OUT)
        _ROW_OUT.argmin()


def _blas() -> None:
    for _ in range(15):
        np.dot(_A, _B, out=_AB)


def _mem() -> None:
    np.multiply(_STREAM, 1.0001, out=_STREAM_OUT)
    np.add(_STREAM_OUT, _STREAM, out=_STREAM_OUT)
    np.subtract(_STREAM_OUT, _STREAM, out=_STREAM_OUT)


PARTS = {"py": _py, "np": _np, "blas": _blas, "mem": _mem}


def probe() -> dict[str, float]:
    """Seconds of each part of the reference workload."""
    out = {}
    for name, fn in PARTS.items():
        t0 = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - t0
    return out


def medians(probes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in probes) for k in PARTS}


def factor(probes: list[dict[str, float]]) -> float:
    """Multiplier from seconds measured around ``probes`` to reference
    seconds: the geometric mean over parts of reference / median time."""
    med = medians(probes)
    return math.exp(statistics.fmean(math.log(REFERENCE_S[k] / med[k]) for k in PARTS))
