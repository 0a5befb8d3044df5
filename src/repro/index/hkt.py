"""Hierarchical k-means tree (Fukunaga & Narendra, §3.1).

Nodes are split by a short 2-means on the node's points (three Lloyd
passes from two random points of the node); nodes are balls
(pivot = mean, radius = max distance), so the ball-based batch
assignment used for Ball-tree applies unchanged.
"""
from __future__ import annotations

import numpy as np

from .base import ArrayTree, build_tree, per_node
from .balltree import DEFAULT_CAPACITY


def build_hkt(X: np.ndarray, capacity: int = DEFAULT_CAPACITY) -> ArrayTree:
    X = np.ascontiguousarray(X, dtype=np.float64)
    rng = np.random.default_rng(0)

    def rule(pts: np.ndarray, d2: np.ndarray):
        b = min(2, len(pts))
        seeds = pts[rng.choice(len(pts), size=b, replace=False)]
        assign = np.zeros(len(pts), dtype=np.int64)
        for _ in range(3):
            d2 = (
                np.einsum("ij,ij->i", pts, pts)[:, None]
                + np.einsum("ij,ij->i", seeds, seeds)[None, :]
                - 2.0 * pts @ seeds.T
            )
            assign = d2.argmin(1)
            for g in range(b):
                m = assign == g
                if m.any():
                    seeds[g] = pts[m].mean(0)
        return b - 1 - assign  # the last cluster's child comes first

    return build_tree(X, per_node(rule), capacity)
