"""Hame — Hamerly's algorithm (§4.2.1): one global ub/lb pair per point.

``ub(i)`` upper-bounds the distance to the assigned centroid, ``lb(i)``
lower-bounds the distance to the second-closest centroid. A point stays
put when ``ub(i) ≤ max(s(a(i)), lb(i))`` (global pruning); otherwise the
ub is tightened with one exact distance and, failing again, a full scan
over the k centroids re-derives assignment and both bounds.
"""
from __future__ import annotations

import numpy as np

from ..ctx import IterCtx
from ..linalg import pair_dists, scan_dists
from ..metrics import Counters
from .base import Kernel, register, top2


@register("hame")
class HamerlyKernel(Kernel):
    needs = frozenset({"s", "c2"})

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        if ctx.iter_idx == 0:
            a, d1, d2, _ = scan_dists(X, ctx.centers, top2, counters, st["x2"], ctx.c2)
            st["a"], st["ub"], st["lb"] = a, d1, d2
            counters.bound_update += 2 * len(a)
            return
        self.step(X, st, ctx, counters)

    def step(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        """One iteration>0 cascade over ``st``'s ``a``/``ub``/``lb``/``x2``, in place."""
        n = X.shape[0]
        a, ub, lb = st["a"], st["ub"], st["lb"]
        # Drift-adjust bounds: ub grows by own drift, lb shrinks by the
        # largest drift among the *other* centroids.
        ub += ctx.delta[a]
        other_max = np.where(a == ctx.delta_arg1, ctx.delta_max2, ctx.delta_max1)
        lb -= other_max
        counters.bound_update += 2 * n
        thr = np.maximum(ctx.s[a], lb)
        counters.bound_access += 2 * n
        cand = np.where(ub > thr)[0]
        if len(cand):
            d_a = pair_dists(X, ctx.centers, cand, a[cand], counters, x2=st["x2"], c2=ctx.c2)
            ub[cand] = d_a
            counters.bound_update += len(cand)
            counters.bound_access += len(cand)
            failm = d_a > thr[cand]
            fail = cand[failm]
            if len(fail):
                self._scan(X, st, ctx, counters, fail, d_a[failm])
                counters.bound_update += 2 * len(fail)

    def _scan(self, X, st, ctx, counters, fail, d_a_fail) -> None:
        """Full re-evaluation for points whose global pruning failed.

        Annular/Exponion override this with a restricted candidate scan.
        """
        na, d1, d2, _ = scan_dists(np.take(X, fail, axis=0), ctx.centers, top2, counters,
                                   st["x2"][fail], ctx.c2)
        st["a"][fail], st["ub"][fail], st["lb"][fail] = na, d1, d2
