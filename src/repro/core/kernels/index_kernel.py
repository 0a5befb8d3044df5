"""INDE — pure index-based batch assignment (§3.1, Moore [51] / Kanungo [45]).

Each partition builds its tree once; every iteration traverses from the
root carrying a shrinking candidate-centroid set. For ball-shaped
nodes, centroid j is pruned when ``d(p, c_j) > d(p, c_b) + 2r`` (the
general form of Equation 2); a node whose candidate set collapses to
one centroid is assigned wholesale. kd-tree nodes use the Kanungo
corner rule on the bounding box instead.

Ball-tree traversal is frontier-at-once: one step takes every node of
the current frontier, as rows of (node, candidate mask), through one
masked pivot→centroid matmul and then batch-assigns, evaluates leaves
or expands children for all rows together. Every decision depends only
on the node's own root path, so this visits the same nodes and counts
the same distances as a node-at-a-time DFS, in tree-depth Python steps.
The helpers below are shared with UniK.
"""
from __future__ import annotations

import numpy as np

from ...index import BALL_INDEXES, build_kdtree
from ...index.base import ArrayTree, compute_spans
from ..ctx import IterCtx
from ..linalg import candidate_dists
from ..metrics import Counters
from .base import Kernel, ranges_to_pairs, register


def slices(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``arange(lo[r], hi[r])`` over rows r, and each element's row."""
    rows, pos = ranges_to_pairs(hi - lo)
    return lo[rows] + pos, rows


def node_dists(tree: ArrayTree, nodes: np.ndarray, cand: np.ndarray,
               ctx: IterCtx, counters: Counters) -> np.ndarray:
    """(F, k) pivot→centroid distances of a frontier; +inf off ``cand``.

    Charges one distance per candidate, the pairs the algorithm uses.
    """
    P = tree.pivot[nodes]
    d2 = (ctx.c2[None, :] + np.einsum("ij,ij->i", P, P)[:, None]) - 2.0 * (P @ ctx.centers.T)
    D = np.sqrt(np.maximum(d2, 0.0))
    D[~cand] = np.inf
    counters.dist += int(cand.sum())
    return D


def children(tree: ArrayTree, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Child ids of every node in ``nodes``, and each child's row in ``nodes``."""
    pos, rows = slices(tree.child_start[nodes], tree.child_start[nodes + 1])
    return tree.child_idx[pos], rows


def covered(tree: ArrayTree, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point ids under every node in ``nodes`` (disjoint subtrees), and their rows."""
    pos, rows = slices(tree.pt_start[nodes], tree.pt_end[nodes])
    return tree.perm[pos], rows


def leaf_pairs(tree: ArrayTree, leaves: np.ndarray, cand: np.ndarray):
    """Every leaf point against its leaf's candidates, as ragged pairs.

    Returns ``(pts, rows, starts, pair_pt, cols)``: the points, each
    point's row in ``leaves``, the offset of each point's first pair, and
    per pair the index into ``pts`` and the centroid id. Pairs are grouped
    by point with ascending centroid ids, ready for ``candidate_dists``
    and ``segment_min``.
    """
    pts, rows = covered(tree, leaves)
    _, leaf_cols = np.nonzero(cand)
    n_cand = cand.sum(1)
    first = np.cumsum(n_cand) - n_cand
    idx, pair_pt = slices(first[rows], (first + n_cand)[rows])
    counts = n_cand[rows]
    return pts, rows, np.cumsum(counts) - counts, pair_pt, leaf_cols[idx]


def segment_min(vals: np.ndarray, seg: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of the first minimum, and the minimum, of each segment.

    ``seg`` numbers the segment of every value (non-decreasing, none
    empty) and ``starts`` holds each segment's first position.
    """
    mins = np.minimum.reduceat(vals, starts)
    hit = np.flatnonzero(vals == mins[seg])
    first = np.ones(len(hit), dtype=bool)
    first[1:] = seg[hit[1:]] != seg[hit[:-1]]
    return hit[first], mins


@register("index")
class IndexKernel(Kernel):
    """Pluggable ball-index kernel: balltree (default), hkt, mtree, covertree."""

    needs = frozenset({"c2"})

    def __init__(self, index: str = "balltree", capacity: int = 30, seed: int = 0):
        if index not in BALL_INDEXES:
            raise KeyError(f"unknown ball index {index!r}")
        self.index = index
        self.capacity = capacity
        self.seed = seed

    def init_state(self, X: np.ndarray) -> dict:
        tree = BALL_INDEXES[self.index](X, capacity=self.capacity, seed=self.seed)
        return {
            "a": np.full(X.shape[0], -1, dtype=np.int64),
            "tree": tree,
            "spans": compute_spans(tree),
        }

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        tree, a = st["tree"], st["a"]
        is_leaf = tree.leaf_mask()
        x2 = np.einsum("ij,ij->i", X, X)
        nodes = np.zeros(1, dtype=np.int64)
        cand = np.ones((1, ctx.k), dtype=bool)
        while len(nodes):
            counters.node_access += len(nodes)
            D = node_dists(tree, nodes, cand, ctx, counters)
            b = D.argmin(1)
            d1 = D[np.arange(len(nodes)), b]
            keep = D <= (d1 + 2.0 * tree.radius[nodes])[:, None]
            one = keep.sum(1) == 1
            pts, rows = covered(tree, nodes[one])
            a[pts] = b[one][rows]
            leaf = ~one & is_leaf[nodes]
            if leaf.any():
                pts, _, starts, pair_pt, cols = leaf_pairs(tree, nodes[leaf], keep[leaf])
                vals = candidate_dists(X, ctx.centers, pts, pair_pt, cols, counters, x2=x2, c2=ctx.c2)
                a[pts] = cols[segment_min(vals, pair_pt, starts)[0]]
            inner = ~(one | leaf)
            nodes, rows = children(tree, nodes[inner])
            cand = keep[inner][rows]

    def footprint(self, st: dict) -> int:
        return st["tree"].nbytes() + st["spans"].nbytes


@register("kdindex")
class KDIndexKernel(Kernel):
    """kd-tree filtering algorithm (Kanungo et al. [45])."""

    needs = frozenset({"c2"})

    def __init__(self, capacity: int = 1, seed: int = 0):
        self.capacity = capacity
        self.seed = seed

    def init_state(self, X: np.ndarray) -> dict:
        kt = build_kdtree(X, capacity=self.capacity, seed=self.seed)
        return {
            "a": np.full(X.shape[0], -1, dtype=np.int64),
            "kt": kt,
            "spans": compute_spans(kt.tree),
        }

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        kt, spans, a = st["kt"], st["spans"], st["a"]
        tree = kt.tree
        C = ctx.centers
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(ctx.k))]
        while stack:
            i, cand = stack.pop()
            counters.node_access += 1
            lo_box, hi_box = kt.bb_min[i], kt.bb_max[i]
            mid = 0.5 * (lo_box + hi_box)
            Cc = C[cand]
            dmid = np.einsum("ij,ij->i", Cc - mid, Cc - mid)
            counters.dist += len(cand)
            zstar = int(dmid.argmin())
            zc = Cc[zstar]
            # Kanungo corner rule: z is dominated by z* over the whole box
            # iff the extreme corner v (towards z) is closer to z*.
            v = np.where(Cc > zc[None, :], hi_box[None, :], lo_box[None, :])
            dz = np.einsum("ij,ij->i", Cc - v, Cc - v)
            dzs = np.einsum("ij,ij->i", zc[None, :] - v, zc[None, :] - v)
            counters.dist += 2 * len(cand)
            keep = dz < dzs
            keep[zstar] = True
            cand2 = cand[keep]
            lo, hi = spans[i]
            if len(cand2) == 1:
                a[tree.perm[lo:hi]] = cand2[0]
            elif tree.is_leaf(i):
                pts = tree.perm[lo:hi]
                P = X[pts]
                D = (
                    np.einsum("ij,ij->i", P, P)[:, None]
                    + ctx.c2[cand2][None, :]
                    - 2.0 * P @ C[cand2].T
                )
                counters.dist += len(pts) * len(cand2)
                counters.data_access += len(pts) * len(cand2)
                a[pts] = cand2[D.argmin(1)]
            else:
                for c in tree.children(i):
                    stack.append((int(c), cand2))

    def footprint(self, st: dict) -> int:
        return st["kt"].nbytes() + st["spans"].nbytes
