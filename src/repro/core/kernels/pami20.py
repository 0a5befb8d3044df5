"""Pami20 — Xia et al.'s bound-free adaptive method (§4.2.5).

No per-point bounds at all. Each iteration: compute every point's exact
distance to its current centroid (n distances), derive each cluster's
radius ``ra`` (max member distance), and build per-cluster candidate
sets ``N_a = { j : ‖c_j − c_a‖ / 2 ≤ ra }`` (Equation 4) — any centroid
outside is provably farther than c_a for every member. Points then only
compare against their cluster's candidates.
"""
from __future__ import annotations

import numpy as np

from ..ctx import IterCtx
from ..linalg import full_dists, pair_dists, scan_dists
from ..metrics import Counters
from .base import Kernel, argmin, nearer, register


@register("pami20")
class Pami20Kernel(Kernel):
    needs = frozenset({"cc", "c2"})

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        n, k = X.shape[0], ctx.k
        a = st["a"]
        if ctx.iter_idx == 0:
            st["a"] = scan_dists(X, ctx.centers, argmin, counters, st["x2"], ctx.c2)
            return
        d_a = pair_dists(X, ctx.centers, np.arange(n), a, counters, x2=st["x2"], c2=ctx.c2)
        ra = np.zeros(k)
        np.maximum.at(ra, a, d_a)
        best = d_a.copy()
        arg = a.copy()
        for j in np.unique(a):
            rows = np.where(a == j)[0]
            cand = np.where(0.5 * ctx.cc[j] <= ra[j])[0]
            cand = cand[cand != j]
            if len(cand) == 0:
                continue
            D = full_dists(np.take(X, rows, axis=0), np.take(ctx.centers, cand, axis=0),
                           counters, st["x2"][rows], ctx.c2[cand])
            jmin = D.argmin(1)
            dmin = D[np.arange(len(rows)), jmin]
            amin = cand[jmin]
            upd = nearer(dmin, amin, best[rows], j)
            best[rows[upd]] = dmin[upd]
            arg[rows[upd]] = amin[upd]
        st["a"] = arg
