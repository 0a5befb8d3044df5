"""Drak — Drake & Hamerly's adaptive-bound algorithm (§4.2.2).

Each point stores lower bounds for its b = min(⌈k/4⌉, k−1) closest
non-assigned centroids (sorted), plus one bound ``lb_rest`` covering
every centroid outside the stored list. The cascade: stay if
``ub ≤ bnd[0]``; else tighten ub; else compute exact distances to the
assigned + b stored centroids, which settles the assignment whenever the
best distance is still below ``lb_rest``; otherwise a full scan rebuilds
the list.
"""
from __future__ import annotations

import numpy as np

from ..ctx import IterCtx
from ..linalg import full_dists, pair_dists
from ..metrics import Counters
from .base import Kernel, register


@register("drak")
class DrakeKernel(Kernel):
    needs = frozenset({"c2"})

    @staticmethod
    def _b(k: int) -> int:
        return min(k - 1, max(1, int(np.ceil(k / 4))))

    def _store_from_full(self, D, st, rows, counters):
        """(Re)build the sorted stored-bound lists from full distance rows."""
        b = self._b(D.shape[1])
        # Stable, so equal distances keep ascending id (Lloyd's argmin).
        order = np.argsort(D, axis=1, kind="stable")
        ds = np.take_along_axis(D, order, axis=1)
        st["a"][rows] = order[:, 0]
        st["ub"][rows] = ds[:, 0]
        st["bnd_ids"][rows] = order[:, 1 : b + 1]
        st["bnd"][rows] = ds[:, 1 : b + 1]
        st["lb_rest"][rows] = ds[:, b + 1] if D.shape[1] > b + 1 else np.inf
        counters.bound_update += len(rows) * (b + 2)

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        n, k = X.shape[0], ctx.k
        b = self._b(k)
        if ctx.iter_idx == 0:
            st["ub"] = np.zeros(n)
            st["bnd_ids"] = np.zeros((n, b), dtype=np.int64)  # stored centroid ids
            st["bnd"] = np.zeros((n, b))      # lower bounds for those centroids
            st["lb_rest"] = np.zeros(n)       # bound for every centroid not stored
            D = full_dists(X, ctx.centers, counters, st["x2"], ctx.c2)
            self._store_from_full(D, st, np.arange(n), counters)
            return
        a, ub, bnd, ids, lb_rest = st["a"], st["ub"], st["bnd"], st["bnd_ids"], st["lb_rest"]
        ub += ctx.delta[a]
        bnd -= ctx.delta[ids]
        lb_rest -= ctx.delta_max1
        counters.bound_update += n * (b + 2)
        counters.bound_access += 2 * n
        # Per-centre drift adjustments break the stored sort order and
        # lb_rest can undercut every stored bound, so the stay test uses
        # the row minimum over stored bounds and lb_rest.
        # At k=1 nothing is stored (b=0) and lb_rest alone is the bound.
        thr = np.minimum(bnd.min(1, initial=np.inf), lb_rest)
        counters.bound_access += n * b
        cand = np.where(ub > thr)[0]
        if len(cand) == 0:
            return
        d_a = pair_dists(X, ctx.centers, cand, a[cand], counters, x2=st["x2"], c2=ctx.c2)
        ub[cand] = d_a
        counters.bound_update += len(cand)
        fail = cand[d_a > thr[cand]]
        if len(fail) == 0:
            return
        m = len(fail)
        # Exact distances to assigned + stored centroids (b+1 per point),
        # via a row-block einsum so X rows are not replicated b+1 times.
        all_ids = np.concatenate([a[fail, None], np.take(ids, fail, axis=0)], axis=1)
        Cg = np.take(ctx.centers, all_ids, axis=0)     # (m, b+1, d)
        d2 = (
            st["x2"][fail][:, None]
            + ctx.c2[all_ids]
            - 2.0 * np.einsum("md,mbd->mb", np.take(X, fail, axis=0), Cg)
        )
        np.maximum(d2, 0.0, out=d2)
        d = np.sqrt(d2)
        counters.dist += m * (b + 1)
        counters.data_access += m * (b + 1)
        # By distance, then by centroid id: the stored ids are not sorted.
        order = np.lexsort((all_ids, d), axis=-1)
        ds = np.take_along_axis(d, order, axis=1)
        cs = np.take_along_axis(all_ids, order, axis=1)
        ok = ds[:, 0] <= lb_rest[fail]
        counters.bound_access += m
        # Settled within the stored list: bounds become exact distances.
        rows_ok = fail[ok]
        if len(rows_ok):
            a[rows_ok] = cs[ok, 0]
            ub[rows_ok] = ds[ok, 0]
            ids[rows_ok] = cs[ok, 1:]
            bnd[rows_ok] = ds[ok, 1:]
            counters.bound_update += len(rows_ok) * (b + 2)
        # Rest: full scan rebuilds the list and lb_rest.
        rows_bad = fail[~ok]
        if len(rows_bad):
            D = full_dists(np.take(X, rows_bad, axis=0), ctx.centers, counters,
                           st["x2"][rows_bad], ctx.c2)
            self._store_from_full(D, st, rows_bad, counters)
