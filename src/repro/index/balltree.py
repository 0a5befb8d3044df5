"""Ball-tree (Omohundro/Uhlmann), the paper's default index (§3.1, §7.2.1).

Split rule: project points onto the line through the two approximate
poles (farthest point from the node mean, then farthest point from that
pole) and cut at the median projection. Leaf capacity defaults to f=30
as in §7.2.1.
"""
from __future__ import annotations

import numpy as np

from .base import ArrayTree, build_tree, median_cut, sq_rows

DEFAULT_CAPACITY = 30


def build_balltree(X: np.ndarray, capacity: int = DEFAULT_CAPACITY) -> ArrayTree:
    X = np.ascontiguousarray(X, dtype=np.float64)
    return build_tree(X, _split, capacity)


def _split(P: np.ndarray, n: np.ndarray, d2: np.ndarray):
    cols = np.arange(len(n))
    p1 = P[d2.argmax(0), cols]
    d1 = sq_rows(P, p1)
    d1[np.arange(len(P))[:, None] >= n] = -np.inf
    p2 = P[d1.argmax(0), cols]
    axis = p2 - p1
    return median_cut(np.einsum("lsd,sd->ls", P, axis), n, axis.any(1))
