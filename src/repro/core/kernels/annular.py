"""Annu — the annular algorithm (§4.3.1, Drake/Hamerly).

Hamerly's cascade plus a norm-annulus candidate filter on the full
scan: centroids are sorted by L2 norm offline (per iteration); a point
that must rescan only considers centroids whose norm falls within
``‖x‖ ± w`` where ``w = max(ub, d(x, c_second))`` (Equation 5). The
second-nearest distance is maintained as an upper bound ``sec`` that
drifts with its centroid.
"""
from __future__ import annotations

import numpy as np

from ...index.base import slices
from ..linalg import candidate_dists, scan_dists
from ..metrics import Counters
from .base import register, segment_top2, top2
from .hamerly import HamerlyKernel

_SQRT_EPS = np.sqrt(np.finfo(np.float64).eps)


@register("annu")
class AnnularKernel(HamerlyKernel):
    needs = frozenset({"s", "c2", "norm_order"})

    def init_state(self, X: np.ndarray) -> dict:
        st = super().init_state(X)
        st["xnorm"] = np.sqrt(st["x2"])
        st["sec"] = np.zeros(X.shape[0])             # upper bound on 2nd distance
        st["sec_id"] = np.zeros(X.shape[0], dtype=np.int64)
        return st

    def assign(self, X, st, ctx, counters: Counters) -> None:
        if ctx.iter_idx == 0:
            a, d1, d2, a2 = scan_dists(X, ctx.centers, top2, counters, st["x2"], ctx.c2)
            st["a"], st["ub"], st["lb"] = a, d1, d2
            st["sec"], st["sec_id"] = d2.copy(), a2
            counters.bound_update += 3 * len(a)
            return
        # The stored second-nearest upper bound drifts with its centroid.
        st["sec"] += ctx.delta[st["sec_id"]]
        counters.bound_update += len(st["sec"])
        super().assign(X, st, ctx, counters)

    def _scan(self, X, st, ctx, counters, fail, d_a_fail) -> None:
        a, ub, lb = st["a"], st["ub"], st["lb"]
        xnorm = st["xnorm"][fail]
        # Width: must cover the true nearest (≤ ub = exact d_a) and the
        # true second-nearest (≤ max(d_a, sec)).
        w = np.maximum(d_a_fail, st["sec"][fail])
        counters.bound_access += len(fail)
        # Widen the annulus by the rounding error of an expanded-form
        # distance, |d̂ − d| ≤ 2·sqrt(eps)·(‖x‖ + ‖c‖) with ‖c‖ ≤ ‖x‖ + w.
        # A centroid on the edge (at d=1 every centroid on x's side of the
        # origin is: |‖c‖ − ‖x‖| = d(x, c)) must never round out of it.
        r = w + 2 * _SQRT_EPS * (2 * xnorm + w)
        lo = np.searchsorted(ctx.norm_sorted, xnorm - r, side="left")
        hi = np.searchsorted(ctx.norm_sorted, xnorm + r, side="right")
        idx, rows = slices(lo, hi)
        cols = ctx.norm_order[idx]
        d = candidate_dists(X, ctx.centers, fail, rows, cols, counters, x2=st["x2"], c2=ctx.c2)
        # Per-row top-2 among candidates (assigned centroid is always a
        # candidate since |‖c_a‖ − ‖x‖| ≤ d(x, c_a) ≤ w).
        best, arg, second, arg2 = segment_top2(d, cols, rows, len(fail))
        # Centroids outside the annulus have distance > w: they can be
        # neither 1st nor 2nd, so the candidate runner-up is exact when
        # it exists; otherwise w itself lower-bounds the 2nd distance.
        no2 = ~np.isfinite(second)
        second[no2] = w[no2]
        arg2[no2] = st["sec_id"][fail][no2]
        a[fail], ub[fail], lb[fail] = arg, best, second
        st["sec"][fail] = np.where(no2, st["sec"][fail], second)
        st["sec_id"][fail] = arg2
        counters.bound_update += 2 * len(fail)
