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
never a search over the m nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
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

    def is_leaf(self, i: int) -> bool:
        return self.child_start[i] == self.child_start[i + 1]

    def children(self, i: int) -> np.ndarray:
        return self.child_idx[self.child_start[i] : self.child_start[i + 1]]

    def leaf_points(self, i: int) -> np.ndarray:
        """Original point indices covered by leaf ``i``."""
        return self.perm[self.pt_start[i] : self.pt_end[i]]

    def leaf_mask(self) -> np.ndarray:
        return self.child_start[:-1] == self.child_start[1:]

    def nbytes(self) -> int:
        return sum(
            a.nbytes
            for a in (
                self.pivot, self.radius, self.sv, self.num, self.psi,
                self.height, self.child_start, self.child_idx,
                self.pt_start, self.pt_end, self.subtree_end, self.perm,
            )
        )

    def range_search(self, X: np.ndarray, q: np.ndarray, thresh: float) -> np.ndarray:
        """Point ids within ``thresh`` of ``q`` (used by the Search method)."""
        out: list[np.ndarray] = []
        stack = [0]
        while stack:
            i = stack.pop()
            dq = float(np.linalg.norm(q - self.pivot[i]))
            if dq - self.radius[i] > thresh:
                continue
            ids = self._covered(i)
            if dq + self.radius[i] <= thresh:
                out.append(ids)
            elif self.is_leaf(i):
                d = np.linalg.norm(X[ids] - q[None, :], axis=1)
                out.append(ids[d <= thresh])
            else:
                stack.extend(self.children(i).tolist())
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)

    def _covered(self, i: int) -> np.ndarray:
        """All point ids under node ``i`` (one contiguous ``perm`` slice)."""
        return self.perm[self.pt_start[i] : self.pt_end[i]]


def compute_spans(tree: "ArrayTree") -> np.ndarray:
    """(m, 2) perm-slice [lo, hi) per node."""
    return np.stack([tree.pt_start, tree.pt_end], axis=1)


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
