"""M-tree-style metric tree (Ciaccia et al., §3.1).

A faithful M-tree grows bottom-up via insertions with node splits; the
paper only uses it as one more ball-shaped index for k-means batch
assignment (and finds it slow to build). We reproduce its *query-side*
shape — ball nodes chosen around two routing pivots with generalized-
hyperplane partitioning (the M-tree mM_RAD split policy) — with a
top-down builder, keeping the random-pivot character of insertion order
by sampling the routing pivots.
"""
from __future__ import annotations

import numpy as np

from .base import ArrayTree, build_tree, per_node
from .balltree import DEFAULT_CAPACITY


def build_mtree(X: np.ndarray, capacity: int = DEFAULT_CAPACITY) -> ArrayTree:
    X = np.ascontiguousarray(X, dtype=np.float64)
    rng = np.random.default_rng(0)

    def rule(pts: np.ndarray, d2: np.ndarray):
        a, b = rng.choice(len(pts), size=2, replace=False)
        pa, pb = pts[a], pts[b]
        if np.array_equal(pa, pb):
            return None
        da = np.einsum("ij,ij->i", pts - pa, pts - pa)
        db = np.einsum("ij,ij->i", pts - pb, pts - pb)
        return (da <= db).astype(np.int64)  # pb's side comes first

    return build_tree(X, per_node(rule), capacity)
