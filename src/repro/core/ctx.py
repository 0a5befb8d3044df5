"""Per-iteration driver-side precompute shared by all partitions.

Each iteration the runner builds one ``IterCtx`` from the current and
previous centroids and broadcasts it. Every ctx carries the centroids
and their drifts; every other field (squared centroid norms, the k×k
centroid distance matrix and s(j), sorted neighbour lists, norm order,
Yinyang groups, block sums, previous-to-current distances) is computed
only when a kernel's ``needs`` names it, and a kernel names only what it
reads, so no kernel pays for another's bounds. Distance computations
performed here (k(k−1)/2 for the cc-matrix, k·t for grouping, k² for
``ccprev``) are charged to ``driver_dist`` and added to the run's
counters, so only the methods whose bounds read the inter-centroid
distances are charged for them, as in the paper's accounting (§4.1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import full_dists


@dataclass
class IterCtx:
    centers: np.ndarray          # (k, d) current centroids
    iter_idx: int
    delta: np.ndarray            # (k,) centroid drifts ||c'_j − c_j||
    delta_max1: float = 0.0      # largest drift
    delta_arg1: int = -1
    delta_max2: float = 0.0      # second-largest drift
    driver_dist: int = 0         # distance comps spent building this ctx
    c2: np.ndarray | None = None          # (k,) squared centroid norms
    cc: np.ndarray | None = None          # (k, k) centroid distances
    s: np.ndarray | None = None           # (k,) half distance to nearest other centroid
    cc_order: np.ndarray | None = None    # (k, k) argsort of each cc row
    cc_sorted: np.ndarray | None = None   # (k, k) sorted cc rows
    norm_order: np.ndarray | None = None  # (k,) centroids sorted by norm
    norm_sorted: np.ndarray | None = None # (k,) sorted centroid norms
    groups: np.ndarray | None = None      # (k,) group id per centroid (Yinyang)
    n_groups: int = 0
    group_delta_max: np.ndarray | None = None  # (t,) max drift per group
    c_blocks: np.ndarray | None = None    # (k, 2) block sums (block-vector)
    c_resid: np.ndarray | None = None     # (k, 2) block residual norms
    ccprev: np.ndarray | None = None      # (k, k) prev-centroid → centroid distances

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def _block_decompose(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-block sum + residual-norm decomposition (block-vector bound)."""
    d = M.shape[1]
    h = max(1, d // 2)
    b1, b2 = M[:, :h], M[:, h:]
    if b2.shape[1] == 0:  # d == 1: duplicate the single block
        b2 = b1
    s = np.stack([b1.sum(1), b2.sum(1)], axis=1)
    lens = np.array([b1.shape[1], b2.shape[1]], dtype=np.float64)
    sq = np.stack([np.einsum("ij,ij->i", b1, b1), np.einsum("ij,ij->i", b2, b2)], axis=1)
    resid = np.sqrt(np.maximum(sq - s * s / lens[None, :], 0.0))
    return s, resid


def group_centers(C: np.ndarray, t: int) -> np.ndarray:
    """Group k centroids into t groups with five small k-means passes.

    Used by Yinyang (first iteration only) and Regroup (every iteration).
    """
    k = C.shape[0]
    t = max(1, min(t, k))
    rng = np.random.default_rng(0)
    seeds = C[rng.choice(k, size=t, replace=False)]
    assign = np.zeros(k, dtype=np.int64)
    for _ in range(5):
        d = full_dists(C, seeds)
        assign = d.argmin(1)
        for g in range(t):
            m = assign == g
            if m.any():
                seeds[g] = C[m].mean(0)
    return assign


def make_ctx(
    centers: np.ndarray,
    prev_centers: np.ndarray,
    iter_idx: int,
    needs: frozenset[str],
    groups: np.ndarray | None = None,
) -> IterCtx:
    """Build the iteration context, computing only what ``needs`` asks for."""
    delta = np.linalg.norm(centers - prev_centers, axis=1)
    ctx = IterCtx(centers=centers, iter_idx=iter_idx, delta=delta)
    if delta.size:
        order = np.argsort(delta)
        ctx.delta_arg1 = int(order[-1])
        ctx.delta_max1 = float(delta[order[-1]])
        ctx.delta_max2 = float(delta[order[-2]]) if delta.size > 1 else 0.0
    k = centers.shape[0]
    if needs & {"c2", "norm_order"}:
        ctx.c2 = np.einsum("ij,ij->i", centers, centers)
    if needs & {"cc", "s", "cc_order"}:
        ctx.cc = full_dists(centers, centers)
        ctx.driver_dist += k * (k - 1) // 2
        cc_inf = ctx.cc + np.diag(np.full(k, np.inf))
        ctx.s = 0.5 * cc_inf.min(1)
    if "cc_order" in needs:
        ctx.cc_order = np.argsort(ctx.cc, axis=1)
        ctx.cc_sorted = np.take_along_axis(ctx.cc, ctx.cc_order, axis=1)
    if "norm_order" in needs:
        norms = np.sqrt(ctx.c2)
        ctx.norm_order = np.argsort(norms)
        ctx.norm_sorted = norms[ctx.norm_order]
    if "groups" in needs:
        t = max(1, int(np.ceil(k / 10)))
        if groups is None:
            groups = group_centers(centers, t)
            ctx.driver_dist += k * t
        ctx.groups = groups
        ctx.n_groups = int(groups.max()) + 1 if groups.size else 0
        gdm = np.zeros(ctx.n_groups)
        np.maximum.at(gdm, groups, delta)
        ctx.group_delta_max = gdm
    if "blocks" in needs:
        ctx.c_blocks, ctx.c_resid = _block_decompose(centers)
    if "ccprev" in needs:
        ctx.ccprev = full_dists(prev_centers, centers)
        ctx.driver_dist += k * k
    return ctx
