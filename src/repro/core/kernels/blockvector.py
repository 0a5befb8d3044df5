"""Vector — Bottesch et al.'s block-vector bound (§4.3.4).

Elkan's cascade plus a cheap norm-based pre-check before each exact
distance: each vector is summarized by two block sums and the residual
norms inside each block, giving the exact Cauchy–Schwarz decomposition

    ⟨x, c⟩ ≤ Σ_b ( s_xb·s_cb / d_b + r_xb·r_cb )

and hence a valid lower bound ``√(‖x‖² + ‖c‖² − 2·upper)`` computed in
O(1) per pair (the paper's Equation 8 modulo the provably-safe residual
term; see DESIGN.md §3). Pairs whose block bound already exceeds the
tightened ub skip the full d-dimensional distance.
"""
from __future__ import annotations

import numpy as np

from ..ctx import _block_decompose
from ..metrics import Counters
from .base import register
from .elkan import ElkanKernel


@register("vector")
class BlockVectorKernel(ElkanKernel):
    needs = frozenset({"cc", "s", "c2", "blocks"})

    def init_state(self, X: np.ndarray) -> dict:
        st = super().init_state(X)
        st["xb"], st["xr"] = _block_decompose(X)
        d = X.shape[1]
        h = max(1, d // 2)
        st["blens"] = np.array([h, d - h if d - h else h], dtype=np.float64)
        return st

    def _prefilter_pairs(self, X, st, ctx, counters, r1, d_a, rr, cols):
        if len(rr) == 0 or X.shape[1] < 2:
            return rr, cols
        xi = r1[rr]
        upper = (
            (np.take(st["xb"], xi, axis=0) * np.take(ctx.c_blocks, cols, axis=0)
             / st["blens"][None, :]).sum(1)
            + (np.take(st["xr"], xi, axis=0) * np.take(ctx.c_resid, cols, axis=0)).sum(1)
        )
        bv2 = st["x2"][xi] + ctx.c2[cols] - 2.0 * upper
        bv = np.sqrt(np.maximum(bv2, 0.0))
        counters.bound_access += len(rr)
        thr = d_a[rr]  # tightened ub per row
        pruned = bv > thr
        if pruned.any():
            # The block bound is itself a valid lb — keep the tighter one.
            lb = st["lb"]
            pr_rows, pr_cols, pr_bv = xi[pruned], cols[pruned], bv[pruned]
            np.maximum.at(lb, (pr_rows, pr_cols), pr_bv)
            counters.bound_update += int(pruned.sum())
        return rr[~pruned], cols[~pruned]
