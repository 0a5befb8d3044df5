"""Plain Lloyd's algorithm (§2.1) — the baseline every method must match."""
from __future__ import annotations

import numpy as np

from ..ctx import IterCtx
from ..linalg import scan_dists
from ..metrics import Counters
from .base import Kernel, argmin, register


@register("lloyd")
class LloydKernel(Kernel):
    """n·k distances and n data accesses per iteration, no bounds.

    The baseline also uses the *traditional* refinement (§5.1.2): every
    point is re-read to recompute the centroids, unlike the accelerated
    methods, which use the incremental sum-vector refinement — this is
    exactly the Figure-9 / Table-9 comparison.
    """

    needs = frozenset()
    traditional_refine = True

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        st["a"] = scan_dists(X, ctx.centers, argmin, counters, st["x2"])
