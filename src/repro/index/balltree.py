"""Ball-tree (Omohundro/Uhlmann), the paper's default index (§3.1, §7.2.1).

Split rule: project points onto the line through the two approximate
poles (farthest point from the node mean, then farthest point from that
pole) and cut at the median projection. Leaf capacity defaults to f=30
as in §7.2.1.
"""
from __future__ import annotations

import numpy as np

from .base import ArrayTree, build_tree

DEFAULT_CAPACITY = 30


def build_balltree(X: np.ndarray, capacity: int = DEFAULT_CAPACITY, seed: int = 0) -> ArrayTree:
    X = np.ascontiguousarray(X, dtype=np.float64)

    def split(idx: np.ndarray, pts: np.ndarray, d2: np.ndarray):
        p1 = pts[int(d2.argmax())]
        d1 = np.einsum("ij,ij->i", pts - p1, pts - p1)
        p2 = pts[int(d1.argmax())]
        axis = p2 - p1
        if not np.any(axis):
            return None  # all points identical
        proj = np.einsum("ij,j->i", pts, axis)
        order = np.argsort(proj, kind="stable")
        half = len(idx) // 2
        return [idx[order[:half]], idx[order[half:]]]

    return build_tree(X, split, capacity)
