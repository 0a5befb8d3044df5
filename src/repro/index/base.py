"""Array-based tree layout shared by every index (§5.1 "advanced index").

Definition 1 of the paper enriches each node with: pivot ``p`` (mean of
covered points), radius ``r``, sum vector ``sv``, distance-to-parent
``psi``, covered-point count ``num`` and height ``h``. We store nodes in
flat numpy arrays (struct-of-arrays) so a per-partition tree pickles
cheaply through Spark's cached-RDD path and traversals stay vectorized.

Children are stored CSR-style (``child_start``/``child_idx``) so binary
trees (Ball/kd/M/HKT) and multi-way trees (Cover-tree) share one layout.

Nodes are numbered in DFS pre-order, and leaves take their points in the
same order, so a subtree is two contiguous ranges: its nodes are the ids
``[i, subtree_end[i])`` and its points are ``perm[pt_start[i]:pt_end[i]]``.
Batch-assigning or resetting a whole subtree is therefore a slice write,
never a search over the m nodes. The frontier helpers below work on many
nodes at once over this layout; ``range_hits`` is the one range-query
engine (Search and ``ArrayTree.range_search``).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np


@dataclass
class ArrayTree:
    pivot: np.ndarray       # (m, d) node mean
    radius: np.ndarray      # (m,) max distance pivot→covered point
    sv: np.ndarray          # (m, d) sum of covered points
    num: np.ndarray         # (m,) covered-point count
    psi: np.ndarray         # (m,) distance to parent pivot (0 at root)
    height: np.ndarray      # (m,) depth from root
    child_start: np.ndarray # (m+1,) CSR offsets into child_idx
    child_idx: np.ndarray   # flat child node ids
    pt_start: np.ndarray    # (m,) start of the node's perm slice
    pt_end: np.ndarray      # (m,) end of the node's perm slice
    subtree_end: np.ndarray # (m,) one past the last pre-order id under the node
    perm: np.ndarray        # (n,) permutation of point indices

    @property
    def n_nodes(self) -> int:
        return self.pivot.shape[0]

    def children(self, i: int) -> np.ndarray:
        return self.child_idx[self.child_start[i] : self.child_start[i + 1]]

    def leaf_mask(self) -> np.ndarray:
        return self.child_start[:-1] == self.child_start[1:]

    def nbytes(self) -> int:
        return sum(getattr(self, f.name).nbytes for f in fields(self))

    def range_search(self, X: np.ndarray, q: np.ndarray, thresh: float) -> np.ndarray:
        """Point ids within ``thresh`` of ``q`` (one query of :func:`range_hits`)."""
        return range_hits(self, X, q[None, :], np.array([thresh], dtype=np.float64))[0]

    def _covered(self, i: int) -> np.ndarray:
        """All point ids under node ``i`` (one contiguous ``perm`` slice)."""
        return self.perm[self.pt_start[i] : self.pt_end[i]]

    leaf_points = _covered


#: Floats in one (pairs, d) temporary of a blocked pair computation, so
#: a block holds ``BLOCK // d`` pairs and stays near cache size whatever
#: the frontier's width.
BLOCK = 1 << 15


def blocks(n_pairs: int, d: int) -> list[slice]:
    """Consecutive slices of at most ``BLOCK // d`` pairs covering ``n_pairs``."""
    step = max(1, BLOCK // d)
    return [slice(s, s + step) for s in range(0, n_pairs, step)]


def slices(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``arange(lo[r], hi[r])`` over rows r, and each element's row."""
    counts = hi - lo
    rows = np.repeat(np.arange(len(lo)), counts)
    pos = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    pos += np.arange(len(rows))
    return pos, rows


def children(tree: ArrayTree, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Child ids of every node in ``nodes``, and each child's row in ``nodes``."""
    pos, rows = slices(tree.child_start[nodes], tree.child_start[nodes + 1])
    return tree.child_idx[pos], rows


def covered(tree: ArrayTree, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point ids under every node in ``nodes`` (disjoint subtrees), and their rows."""
    pos, rows = slices(tree.pt_start[nodes], tree.pt_end[nodes])
    return tree.perm[pos], rows


def range_hits(
    tree: ArrayTree, X: np.ndarray, Q: np.ndarray, thresh: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Every (point, query) pair with ``d(X[point], Q[query]) <= thresh[query]``.

    All queries descend together: a frontier row is (node, query), so the
    number of Python steps is the tree depth. A row whose ball lies beyond
    the threshold is dropped, one whose ball lies within it yields its
    whole perm slice, a leaf checks its points and an inner node expands
    into its children. Returns the hit points, their queries, and the
    number of node rows and leaf-point distances evaluated.
    """
    is_leaf = tree.leaf_mask()
    qs = np.arange(len(Q))
    nodes = np.zeros(len(Q), dtype=np.int64)
    hit_pts, hit_qs = [], []
    visits = leaf_dists = 0
    while len(nodes):
        visits += len(nodes)
        t = thresh[qs]
        dq = np.linalg.norm(Q[qs] - tree.pivot[nodes], axis=1)
        r = tree.radius[nodes]
        live = dq - r <= t
        whole = live & (dq + r <= t)
        leaf = live & ~whole & is_leaf[nodes]
        pts, rows = covered(tree, nodes[whole])
        hit_pts.append(pts)
        hit_qs.append(qs[whole][rows])
        pts, rows = covered(tree, nodes[leaf])
        q = qs[leaf][rows]
        near = np.empty(len(pts), dtype=bool)
        for b in blocks(len(pts), X.shape[1]):
            near[b] = np.linalg.norm(X[pts[b]] - Q[q[b]], axis=1) <= thresh[q[b]]
        leaf_dists += len(pts)
        hit_pts.append(pts[near])
        hit_qs.append(q[near])
        inner = live & ~whole & ~leaf
        nodes, rows = children(tree, nodes[inner])
        qs = qs[inner][rows]
    return np.concatenate(hit_pts), np.concatenate(hit_qs), visits, leaf_dists


def build_tree(
    X: np.ndarray,
    split: Callable[[np.ndarray, np.ndarray, np.ndarray], Sequence[np.ndarray] | None],
    capacity: int,
) -> ArrayTree:
    """Generic top-down builder.

    ``split(idx, pts, d2)`` partitions a set of point indices into ≥2
    groups, or returns ``None`` to force a leaf. It gets the node's
    points ``pts = X[idx]`` and their squared distances ``d2`` to the
    node's pivot, which the builder computes once for the node's own
    statistics. Nodes with ≤ ``capacity`` points become leaves. A node
    gets its id, and a leaf its points, when it is popped, so ids run in
    DFS pre-order and every subtree covers one ``perm`` slice.
    """
    n, d = X.shape
    pivot, radius, sv, num, psi, height, parent, pt_start = [], [], [], [], [], [], [], []
    perm = np.empty(n, dtype=np.int64)
    cursor = 0

    # Explicit stack to avoid Python recursion limits on skewed trees.
    stack: list[tuple[np.ndarray, int]] = [(np.arange(n), -1)]
    while stack:
        idx, par = stack.pop()
        i = len(pivot)
        pts = X[idx]
        s = pts.sum(0)
        p = s / len(idx)
        diff = pts - p
        d2 = np.einsum("ij,ij->i", diff, diff)
        r = float(np.sqrt(d2.max())) if len(idx) else 0.0
        pivot.append(p)
        sv.append(s)
        radius.append(r)
        num.append(len(idx))
        psi.append(0.0 if par < 0 else float(np.linalg.norm(p - pivot[par])))
        height.append(0 if par < 0 else height[par] + 1)
        parent.append(par)
        pt_start.append(cursor)
        groups = None
        if len(idx) > capacity:
            groups = split(idx, pts, d2)
            if groups is not None:
                groups = [g for g in groups if len(g) > 0]
                if len(groups) < 2:
                    groups = None
        if groups is None:
            perm[cursor : cursor + len(idx)] = idx
            cursor += len(idx)
        else:
            stack.extend((g, i) for g in groups)

    m = len(pivot)
    parent_arr = np.asarray(parent[1:], dtype=np.int64)
    child_start = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent_arr, minlength=m), out=child_start[1:])
    num_arr = np.asarray(num, dtype=np.int64)
    pt_start_arr = np.asarray(pt_start, dtype=np.int64)
    pt_end = pt_start_arr + num_arr
    # pt_start is non-decreasing in pre-order, and every node covers at
    # least one point, so the first id whose slice starts at or after
    # pt_end[i] is the first id outside i's subtree.
    subtree_end = np.maximum(np.searchsorted(pt_start_arr, pt_end), np.arange(1, m + 1))
    return ArrayTree(
        pivot=np.asarray(pivot, dtype=np.float64),
        radius=np.asarray(radius, dtype=np.float64),
        sv=np.asarray(sv, dtype=np.float64),
        num=num_arr,
        psi=np.asarray(psi, dtype=np.float64),
        height=np.asarray(height, dtype=np.int64),
        child_start=child_start,
        child_idx=np.argsort(parent_arr, kind="stable") + 1,
        pt_start=pt_start_arr,
        pt_end=pt_end,
        subtree_end=subtree_end,
        perm=perm,
    )
