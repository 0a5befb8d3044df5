"""Expo — Newling & Fleuret's exponion algorithm (§4.3.2).

Hamerly's cascade with the scan restricted to the ball (Equation 6):
centroids within ``2·ub + ‖c_a − c_a'‖`` of the assigned centroid,
where ``c_a'`` is the assigned centroid's nearest other centroid. Each
centroid's neighbour list sorted by distance (ctx.cc_order/cc_sorted)
turns the filter into one ``searchsorted`` per point.
"""
from __future__ import annotations

import numpy as np

from ...index.base import slices
from ..linalg import candidate_dists
from ..metrics import Counters
from .base import register, segment_top2
from .hamerly import HamerlyKernel


@register("expo")
class ExponionKernel(HamerlyKernel):
    needs = frozenset({"s", "c2", "cc_order"})

    def _scan(self, X, st, ctx, counters, fail, d_a_fail) -> None:
        a, ub, lb = st["a"], st["ub"], st["lb"]
        aR = a[fail]
        nn = ctx.cc_sorted[aR, 1] if ctx.k > 1 else np.zeros(len(fail))
        R = 2.0 * d_a_fail + nn
        # Candidates: prefix of the assigned centroid's sorted neighbour
        # row whose cc distance is ≤ R (always includes a and its nn).
        cnt = (np.take(ctx.cc_sorted, aR, axis=0) <= R[:, None]).sum(1).astype(np.int64)
        pos, rows = slices(np.zeros_like(cnt), cnt)
        cols = ctx.cc_order[aR[rows], pos]
        d = candidate_dists(X, ctx.centers, fail, rows, cols, counters, x2=st["x2"], c2=ctx.c2)
        d1, c1, d2, _ = segment_top2(d, cols, rows, len(fail))
        # Outside the ball: d(x, c_j) ≥ cc(a, j) − d(x, a) > R − ub, so
        # the runner-up bound is min(candidate d2, R − ub).
        lb_out = R - d_a_fail
        a[fail] = c1
        ub[fail] = d1
        lb[fail] = np.minimum(d2, lb_out)
