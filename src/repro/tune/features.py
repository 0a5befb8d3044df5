"""Meta-feature extraction for UTune (§6.1, Table 1).

Three groups, matching Table 1's normalization column:

* basic — n, k, d;
* tree — Ball-tree height, internal/leaf node counts, leaf-height
  mean/std (tree imbalance), normalized by log2(n/f) resp. n/f;
* leaf — leaf radius, distance-to-parent ψ and covered-point-count
  mean/std, normalized by the root radius resp. capacity f.
"""
from __future__ import annotations

import numpy as np

from ..index.balltree import DEFAULT_CAPACITY, build_balltree

FEATURE_NAMES = [
    "n", "k", "d",                              # basic
    "height", "n_internal", "n_leaf", "h_mu", "h_sigma",   # tree
    "r_mu", "r_sigma", "psi_mu", "psi_sigma", "lp_mu", "lp_sigma",  # leaf
]
BASIC = slice(0, 3)
TREE = slice(0, 8)
LEAF = slice(0, 14)
FEATURE_SETS = {"basic": BASIC, "tree": TREE, "leaf": LEAF}


def extract_features(X: np.ndarray, k: int) -> np.ndarray:
    """Full 14-dim feature vector for a clustering task (dataset, k), from
    ``build_balltree(X)``."""
    n, d = X.shape
    tree = build_balltree(X)
    f = float(DEFAULT_CAPACITY)
    leaf_mask = tree.leaf_mask()
    leaves = np.where(leaf_mask)[0]
    norm_h = max(1.0, np.log2(max(2.0, n / f)))
    norm_cnt = max(1.0, n / f)
    root_r = max(tree.radius[0], 1e-12)
    lh = tree.height[leaves].astype(np.float64)
    lr = tree.radius[leaves]
    lpsi = tree.psi[leaves]
    lp = (tree.pt_end[leaves] - tree.pt_start[leaves]).astype(np.float64)
    return np.array(
        [
            float(n),
            float(k),
            float(d),
            tree.height.max() / norm_h,
            float((~leaf_mask).sum()) / norm_cnt,
            float(leaf_mask.sum()) / norm_cnt,
            lh.mean() / norm_h,
            lh.std() / norm_h,
            lr.mean() / root_r,
            lr.std() / root_r,
            lpsi.mean() / root_r,
            lpsi.std() / root_r,
            lp.mean() / f,
            lp.std() / f,
        ]
    )
