"""INDE and kdindex — index-based batch assignment (§3.1, Moore [51] / Kanungo [45]).

Each partition builds its tree once; every iteration traverses from the
root carrying a shrinking candidate-centroid set, frontier-at-once: one
step takes every node of the frontier, as rows of (node, candidate mask),
through one prune step, then batch-assigns the rows left with one
candidate, evaluates leaves and expands the rest into their children.
The prune step is the only difference: Moore's ball rule
``d(p, c_j) > d(p, c_b) + 2r`` (the general form of Equation 2) for
INDE, Kanungo's corner rule on the bounding box for kdindex. Every
decision depends only on the node's own root path, so this visits the
same nodes and counts the same distances as a node-at-a-time DFS, in
tree-depth Python steps. ``node_dists`` and ``leaf_pairs`` are shared
with UniK; leaf points pick their centroid through ``base.segment_min``.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from ...index import BALL_INDEXES, KDTree, build_kdtree
from ...index.base import ArrayTree, blocks, children, covered, slices
from ..ctx import IterCtx
from ..linalg import candidate_dists, full_dists
from ..metrics import Counters
from .base import Kernel, register, segment_min


def node_dists(tree: ArrayTree, nodes: np.ndarray, cand: np.ndarray,
               ctx: IterCtx, counters: Counters) -> np.ndarray:
    """(F, k) pivot→centroid distances of a frontier; +inf off ``cand``.

    Charges one distance per candidate, the pairs the algorithm uses.
    """
    D = full_dists(np.take(tree.pivot, nodes, axis=0), ctx.centers, c2=ctx.c2)
    D[~cand] = np.inf
    counters.dist += int(cand.sum())
    return D


def leaf_pairs(tree: ArrayTree, leaves: np.ndarray, cand: np.ndarray):
    """Every leaf point against its leaf's candidates, as ragged pairs.

    Returns ``(pts, rows, pair_pt, cols)``: the points, each point's row
    in ``leaves``, and per pair the index into ``pts`` and the centroid
    id. Pairs are grouped by point, ready for ``candidate_dists`` and
    ``base.segment_min``.
    """
    pts, rows = covered(tree, leaves)
    _, leaf_cols = np.nonzero(cand)
    n_cand = cand.sum(1)
    first = np.cumsum(n_cand) - n_cand
    idx, pair_pt = slices(first[rows], (first + n_cand)[rows])
    return pts, rows, pair_pt, leaf_cols[idx]


def descend(X: np.ndarray, tree: ArrayTree, st: dict, ctx: IterCtx, counters: Counters,
            prune: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> None:
    """Assign every point of ``X`` into ``st["a"]`` by a frontier-at-once descent.

    ``prune(nodes, cand)`` maps each row's (node, candidate mask) to the
    mask of candidates that may still own one of the node's points.
    """
    is_leaf = tree.leaf_mask()
    a, x2 = st["a"], st["x2"]
    nodes = np.zeros(1, dtype=np.int64)
    cand = np.ones((1, ctx.k), dtype=bool)
    while len(nodes):
        counters.node_access += len(nodes)
        keep = prune(nodes, cand)
        one = keep.sum(1) == 1
        pts, rows = covered(tree, nodes[one])
        a[pts] = keep[one].argmax(1)[rows]
        leaf = ~one & is_leaf[nodes]
        if leaf.any():
            pts, _, pair_pt, cols = leaf_pairs(tree, nodes[leaf], keep[leaf])
            vals = candidate_dists(X, ctx.centers, pts, pair_pt, cols, counters, x2=x2, c2=ctx.c2)
            a[pts] = segment_min(vals, cols, pair_pt, len(pts))[1]
        inner = ~(one | leaf)
        nodes, rows = children(tree, nodes[inner])
        cand = np.take(keep[inner], rows, axis=0)


def ball_keep(tree: ArrayTree, nodes: np.ndarray, cand: np.ndarray, ctx: IterCtx,
              counters: Counters) -> np.ndarray:
    """Moore's ball rule: a row keeps c_j unless ``d(p, c_j) > d(p, c_b) + 2r``.

    The right-hand side carries a relative margin of 1e-9: node distances
    come from the expanded form, so a centroid tied exactly at the ball's
    edge can round just above it, and pruning it would lose a tie that
    Lloyd's argmin gives to the lower id.
    """
    D = node_dists(tree, nodes, cand, ctx, counters)
    return D <= ((D.min(1) + 2.0 * tree.radius[nodes]) * (1 + 1e-9))[:, None]


def kanungo_keep(kt: KDTree, C: np.ndarray, nodes: np.ndarray, cand: np.ndarray,
                 counters: Counters) -> np.ndarray:
    """Kanungo's filter over the rows (node, candidate mask).

    z* is the candidate nearest the box midpoint (lowest id on ties). A
    candidate z is dominated by z* over the whole box iff z* is strictly
    closer to the box corner v that lies furthest towards z; a tie at v
    keeps z, so an exact tie is left to the leaf's argmin.
    """
    lo, hi = np.take(kt.bb_min, nodes, axis=0), np.take(kt.bb_max, nodes, axis=0)
    mid = 0.5 * (lo + hi)
    rows, cols = np.nonzero(cand)
    counters.dist += 3 * len(rows)
    dmid = np.full(cand.shape, np.inf)
    for b in blocks(len(rows), C.shape[1]):
        r, c = rows[b], cols[b]
        diff = np.take(C, c, axis=0) - np.take(mid, r, axis=0)
        dmid[r, c] = np.einsum("ij,ij->i", diff, diff)
    zstar = dmid.argmin(1)
    keep = np.zeros_like(cand)
    for b in blocks(len(rows), C.shape[1]):
        r, c = rows[b], cols[b]
        Cc, zc = np.take(C, c, axis=0), np.take(C, zstar[r], axis=0)
        v = np.where(Cc > zc, np.take(hi, r, axis=0), np.take(lo, r, axis=0))
        dz, dzs = Cc - v, zc - v
        keep[r, c] = np.einsum("ij,ij->i", dz, dz) <= np.einsum("ij,ij->i", dzs, dzs)
    return keep


@register("index")
class IndexKernel(Kernel):
    """Pluggable ball-index kernel: balltree (default), hkt, mtree, covertree."""

    needs = frozenset({"c2"})

    def __init__(self, index: str = "balltree"):
        if index not in BALL_INDEXES:
            raise KeyError(f"unknown ball index {index!r}")
        self.index = index

    def init_state(self, X: np.ndarray) -> dict:
        st = super().init_state(X)
        st["tree"] = BALL_INDEXES[self.index](X)
        return st

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        tree = st["tree"]
        descend(X, tree, st, ctx, counters,
                lambda nodes, cand: ball_keep(tree, nodes, cand, ctx, counters))


@register("kdindex")
class KDIndexKernel(Kernel):
    """kd-tree filtering algorithm (Kanungo et al. [45])."""

    needs = frozenset({"c2"})

    def init_state(self, X: np.ndarray) -> dict:
        st = super().init_state(X)
        st["kt"] = build_kdtree(X)
        return st

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        kt = st["kt"]
        descend(X, kt.tree, st, ctx, counters,
                lambda nodes, cand: kanungo_keep(kt, ctx.centers, nodes, cand, counters))
