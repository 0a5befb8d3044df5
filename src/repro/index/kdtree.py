"""kd-tree (Bentley) with per-node bounding boxes (§3.1).

The paper notes kd-tree leaves cover a single point ([45]'s filtering
algorithm); we keep capacity=1 as the default but make it configurable.
Bounding boxes are stored alongside the shared :class:`ArrayTree` arrays
so the Kanungo corner-pruning rule can run during assignment.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ArrayTree, build_tree, median_cut


@dataclass
class KDTree:
    tree: ArrayTree
    bb_min: np.ndarray  # (m, d)
    bb_max: np.ndarray  # (m, d)

    def nbytes(self) -> int:
        return self.tree.nbytes() + self.bb_min.nbytes + self.bb_max.nbytes


def build_kdtree(X: np.ndarray, capacity: int = 1) -> KDTree:
    X = np.ascontiguousarray(X, dtype=np.float64)
    tree = build_tree(X, _split, capacity)
    # Every node's covered set is one perm slice, so all boxes come from
    # one segmented min/max over the permuted points: reduceat over the
    # interleaved bounds [lo0, hi0, lo1, hi1, ...] reduces each [lo, hi)
    # at the even positions (a sentinel row keeps hi = n a valid index).
    # The boxes are stored C-contiguous: ``np.take`` on a strided view
    # copies the whole array before each gather.
    Xp = np.take(X, np.append(tree.perm, tree.perm[:1]), axis=0)
    bounds = np.column_stack([tree.pt_start, tree.pt_end]).ravel()
    bb_min = np.ascontiguousarray(np.minimum.reduceat(Xp, bounds)[::2])
    bb_max = np.ascontiguousarray(np.maximum.reduceat(Xp, bounds)[::2])
    return KDTree(tree=tree, bb_min=bb_min, bb_max=bb_max)


def _split(P: np.ndarray, n: np.ndarray, d2: np.ndarray):
    live = (np.arange(len(P))[:, None] < n)[..., None]
    spread = P.max(0, where=live, initial=-np.inf) - P.min(0, where=live, initial=np.inf)
    dim = spread.argmax(1)
    cols = np.arange(len(n))
    return median_cut(P[:, cols, dim], n, spread[cols, dim] > 0)
