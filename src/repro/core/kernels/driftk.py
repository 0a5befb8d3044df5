"""Drift — Rysavy & Hamerly's tighter-drift variant of Elkan (§4.3.3).

The paper's Equation 7 tightens the per-pair lower-bound update using
the geometry of the assigned cluster (its radius and the centroid's
position); their high-dimensional conversion (Algorithm 2 of [61]) is
intricate and easy to mis-transcribe into an *inexact* bound. We
reproduce the same idea with a provably valid geometric bound built
from the identical ingredients: for point x previously assigned to
cluster a with ``d(x, c'_a) ≤ ub_prev``,

    d(x, c_j) ≥ d(c'_a, c_j) − d(x, c'_a) ≥ ccprev[a, j] − ub_prev(i)

which is often far tighter than Elkan's ``lb − δ_j`` after large drifts
(the substitution is documented in DESIGN.md §3).
"""
from __future__ import annotations

import numpy as np

from ..metrics import Counters
from .base import register
from .elkan import ElkanKernel


@register("drift")
class DriftKernel(ElkanKernel):
    needs = frozenset({"cc", "s", "c2", "ccprev"})

    def _extra_lb(self, X, st, ctx, counters) -> None:
        a, lb, ub_prev = st["a"], st["lb"], st["ub"]
        alt = np.take(ctx.ccprev, a, axis=0) - ub_prev[:, None]
        np.maximum(lb, alt, out=lb)
        counters.bound_update += lb.size
        counters.bound_access += lb.size
