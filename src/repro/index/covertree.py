"""Simplified Cover-tree (Beygelzimer et al., §3.1).

A literal cover tree maintains per-level covering/separation invariants
via incremental insertion. For k-means batch assignment only the *ball
shape* of nodes matters (Equation 2 pruning), so we build a top-down
hierarchy with the cover-tree geometry: each node's children are a
greedy farthest-point cover of its points at half the parent's covering
radius (radius halving per level — the 2^i scale ladder), each child
owning the points nearest to its cover point. Multi-way children use
the CSR child layout of :class:`ArrayTree`.
"""
from __future__ import annotations

import numpy as np

from .base import ArrayTree, build_tree, per_node
from .balltree import DEFAULT_CAPACITY


def build_covertree(X: np.ndarray, capacity: int = DEFAULT_CAPACITY) -> ArrayTree:
    X = np.ascontiguousarray(X, dtype=np.float64)
    rng = np.random.default_rng(0)

    def rule(pts: np.ndarray, d2: np.ndarray):
        r = float(np.sqrt(d2.max()))
        if r <= 0:
            return None
        target = r / 2.0
        # Greedy farthest-point cover at scale r/2.
        centers = [int(rng.integers(len(pts)))]
        dmin = np.linalg.norm(pts - pts[centers[0]], axis=1)
        while dmin.max() > target and len(centers) < 8:
            c = int(dmin.argmax())
            centers.append(c)
            np.minimum(dmin, np.linalg.norm(pts - pts[c], axis=1), out=dmin)
        if len(centers) < 2:
            return None
        C = pts[centers]
        d2c = (
            np.einsum("ij,ij->i", pts, pts)[:, None]
            + np.einsum("ij,ij->i", C, C)[None, :]
            - 2.0 * pts @ C.T
        )
        return len(centers) - 1 - d2c.argmin(1)  # the last cover point's child comes first

    return build_tree(X, per_node(rule), capacity)
