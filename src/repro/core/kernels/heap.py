"""Heap — Hamerly & Drake's bound-gap organization (§4.2.4).

Instead of updating every point's bounds each iteration, each point
stores its gap ``lu = lb − ub`` at the last full evaluation, together
with a reference into its cluster's cumulative worst-case gap decrement
``off[j] = Σ_t (δ_j + max_{j'≠j} δ_{j'})``. A point's current gap lower
bound is ``lu_stored − (off[a] − off_ref)``; only points whose adjusted
gap drops below zero are popped and fully re-evaluated (k distances),
so bound *updates* are paid only by popped points — the algorithm's
selling point in Figure 11.

We realize the per-cluster heaps as lazy arrays (same pruning
decisions, same pop set, same bound-update counts); see DESIGN.md §3
for why a literal Python binary heap would distort wall-time.
"""
from __future__ import annotations

import numpy as np

from ..ctx import IterCtx
from ..linalg import scan_dists
from ..metrics import Counters
from .base import Kernel, register, top2


@register("heap")
class HeapKernel(Kernel):
    needs = frozenset({"c2"})

    def init_state(self, X: np.ndarray) -> dict:
        st = super().init_state(X)
        st["lu"] = np.zeros(X.shape[0])        # gap lb − ub at last evaluation
        st["off_ref"] = np.zeros(X.shape[0])   # cluster offset at last evaluation
        st["off"] = None                       # (k,) cumulative per-cluster decrement
        return st

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        n, k = X.shape[0], ctx.k
        if ctx.iter_idx == 0:
            st["off"] = np.zeros(k)
            a, d1, d2, _ = scan_dists(X, ctx.centers, top2, counters, st["x2"], ctx.c2)
            st["a"] = a
            st["lu"] = d2 - d1
            st["off_ref"] = np.zeros(n)
            counters.bound_update += n
            return
        a, lu, off_ref, off = st["a"], st["lu"], st["off_ref"], st["off"]
        other_max = np.where(
            np.arange(k) == ctx.delta_arg1, ctx.delta_max2, ctx.delta_max1
        )
        off += ctx.delta + other_max
        adj = lu - (off[a] - off_ref)
        # Heap semantics: only cluster-top peeks + actual pops touch
        # bounds; we charge one access per cluster peek plus the pops.
        pops = np.where(adj < 0)[0]
        counters.bound_access += k + len(pops)
        if len(pops):
            na, d1, d2, _ = scan_dists(np.take(X, pops, axis=0), ctx.centers, top2, counters,
                                       st["x2"][pops], ctx.c2)
            a[pops] = na
            lu[pops] = d2 - d1
            off_ref[pops] = off[na]
            counters.bound_update += len(pops)
