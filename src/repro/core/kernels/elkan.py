"""Elka — Elkan's algorithm (§4.1): inter-bound + drift-bound, n×k lbs.

Keeps a lower bound lb(i,j) for every (point, centroid) pair plus one
upper bound ub(i). Per iteration lbs shrink by each centroid's drift and
ub grows by the assigned centroid's drift; the inter-centroid half
distances s(j) give the global skip, and the pairwise tests
``lb(i,j) ≤ ub(i)`` / ``cc(a,j)/2 ≤ ub(i)`` gate every exact distance
(non-strict, so a centroid tied with the assigned one is still seen).
"""
from __future__ import annotations

import numpy as np

from ..ctx import IterCtx
from ..linalg import candidate_dists, full_dists, pair_dists
from ..metrics import Counters
from .base import Kernel, group_layout, group_min, nearer, register, segment_min, top2


@register("elka")
class ElkanKernel(Kernel):
    needs = frozenset({"cc", "s", "c2"})
    use_groups = False

    def init_state(self, X: np.ndarray) -> dict:
        st = super().init_state(X)
        st["ub"] = np.zeros(X.shape[0])
        st["lb"] = None  # n×k, allocated on first assign (k unknown here)
        return st

    def _first(self, X, st, ctx, counters):
        D = full_dists(X, ctx.centers, counters, st["x2"], ctx.c2)
        a, d1, _, _ = top2(D)
        st["a"], st["ub"], st["lb"] = a, d1, D
        counters.bound_update += D.size + len(a)

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        if ctx.iter_idx == 0:
            self._first(X, st, ctx, counters)
            return
        n, k = X.shape[0], ctx.k
        a, ub, lb = st["a"], st["ub"], st["lb"]
        lb -= ctx.delta[None, :]
        self._extra_lb(X, st, ctx, counters)  # reads the pre-drift ub
        ub += ctx.delta[a]
        counters.bound_update += n * k + n
        if self.use_groups:
            # Full: group bounds derived as group-minima of the lb matrix
            # add a Yinyang-style global/group filter on top of Elkan's.
            lb_masked = lb.copy()
            lb_masked[np.arange(n), a] = np.inf
            order, _, count, _ = group_layout(ctx.groups, ctx.n_groups)
            lbg = group_min(lb_masked, order, count)
            gmin = lbg.min(1)
            counters.bound_access += n * k + n * ctx.n_groups
            skip = ub < np.maximum(ctx.s[a], gmin)
        else:
            skip = ub < ctx.s[a]
        counters.bound_access += n
        act = np.where(~skip)[0]
        if len(act) == 0:
            return
        # Candidate mask with the (possibly stale) ub.
        ub_a = ub[act, None]
        M = (np.take(lb, act, axis=0) <= ub_a) & (0.5 * np.take(ctx.cc, a[act], axis=0) <= ub_a)
        if self.use_groups:
            M &= np.take(lbg, act, axis=0)[:, ctx.groups] <= ub_a  # group filter per centre
        M[np.arange(len(act)), a[act]] = False
        counters.bound_access += len(act) * k
        rows_any = np.where(M.any(1))[0]
        if len(rows_any) == 0:
            return
        r1 = act[rows_any]
        d_a = pair_dists(X, ctx.centers, r1, a[r1], counters, x2=st["x2"], c2=ctx.c2)
        ub[r1] = d_a
        lb[r1, a[r1]] = d_a
        counters.bound_update += 2 * len(r1)
        ub_t = d_a[:, None]
        M2 = (np.take(lb, r1, axis=0) <= ub_t) & (0.5 * np.take(ctx.cc, a[r1], axis=0) <= ub_t)
        M2[np.arange(len(r1)), a[r1]] = False
        counters.bound_access += len(r1) * k
        rr, cols = np.nonzero(M2)
        rr, cols = self._prefilter_pairs(X, st, ctx, counters, r1, d_a, rr, cols)
        d = candidate_dists(X, ctx.centers, r1, rr, cols, counters, x2=st["x2"], c2=ctx.c2)
        lb[r1[rr], cols] = d
        counters.bound_update += len(rr)
        best, arg = segment_min(d, cols, rr, len(r1))
        upd = nearer(best, arg, d_a, a[r1])
        rows_u = r1[upd]
        a[rows_u] = arg[upd]
        ub[rows_u] = best[upd]
        counters.bound_update += 2 * int(upd.sum())

    def _extra_lb(self, X, st, ctx, counters) -> None:
        """Hook for Drift's tighter geometric lower bound (no-op here).

        Runs after ``lb`` has drifted and before ``ub`` has, so
        ``st["ub"]`` still bounds each point's distance to its previous
        centroid.
        """

    def _prefilter_pairs(self, X, st, ctx, counters, r1, d_a, rr, cols):
        """Hook for Vector's block-vector pre-check (no-op here)."""
        return rr, cols
