"""Search — Broder et al.'s pre-assignment ranked retrieval (§3.2).

Before the sequential pass, a range search around each centroid c_j
with threshold s(j) = ‖c_j − c_nearest‖/2 finds points provably closer
to c_j than to any other centroid; those are assigned directly. The
remaining points fall back to a full sequential scan. The k searches
run as one frontier-at-once descent of the partition-local Ball-tree.
"""
from __future__ import annotations

import numpy as np

from ...index.balltree import build_balltree
from ...index.base import range_hits
from ..ctx import IterCtx
from ..linalg import full_dists
from ..metrics import Counters
from .base import Kernel, register


@register("search")
class SearchKernel(Kernel):
    needs = frozenset({"s", "c2"})

    def init_state(self, X: np.ndarray) -> dict:
        st = super().init_state(X)
        st["tree"] = build_balltree(X)
        return st

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        n, k = X.shape[0], ctx.k
        # Inclusion is strict: a point at exactly s(j) may tie with
        # another centroid, so it is left to the full scan's argmin.
        pts, js, visits, leaf_dists = range_hits(
            st["tree"], X, ctx.centers, np.nextafter(ctx.s, -np.inf)
        )
        counters.node_access += visits
        counters.dist += visits + leaf_dists
        counters.data_access += leaf_dists
        # Balls meet only through rounding; the lowest centroid id wins.
        a = np.full(n, k, dtype=np.int64)
        np.minimum.at(a, pts, js)
        rest = np.flatnonzero(a == k)
        if len(rest):
            D = full_dists(np.take(X, rest, axis=0), ctx.centers, counters,
                           st["x2"][rest], ctx.c2)
            a[rest] = D.argmin(1)
        st["a"] = a
