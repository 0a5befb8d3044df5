"""Every index builder produces exactly the pinned trees.

The digests pin, bit for bit, every ``ArrayTree`` array (and the kd-tree
boxes) that each builder produces on one fixed 2-d and one fixed 57-d
input. Traversal counts pin only the trees the kernels walk (ball and
cover tree); these digests also cover HKT, M-tree and kd-tree, so a
change to the builder that alters any split, pivot, radius or point
order shows here.
"""
import hashlib

import numpy as np
import pytest

from repro.index import (
    build_balltree,
    build_covertree,
    build_hkt,
    build_kdtree,
    build_mtree,
)

FIELDS = (
    "pivot", "radius", "sv", "num", "psi", "height", "child_start",
    "child_idx", "pt_start", "pt_end", "subtree_end", "perm",
)


def _input(d: int) -> np.ndarray:
    rng = np.random.default_rng(2024 + d)
    blobs = rng.normal(scale=6.0, size=(8, d))
    X = blobs[rng.integers(8, size=1500)] + rng.normal(size=(1500, d))
    X[:40] = X[40]  # a run of duplicate points
    return X


def _digest(built) -> str:
    tree = getattr(built, "tree", built)
    h = hashlib.sha256()
    for name in FIELDS:
        a = np.ascontiguousarray(getattr(tree, name))
        h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    for name in ("bb_min", "bb_max"):
        if hasattr(built, name):
            a = np.ascontiguousarray(getattr(built, name))
            h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


BUILDERS = {
    "balltree": build_balltree,
    "hkt": build_hkt,
    "mtree": build_mtree,
    "covertree": build_covertree,
    "kdtree": build_kdtree,
}

# A changed digest means a changed tree: the traversal counts and every
# index kernel result built on it may move with it.
PINNED = {
    ("balltree", 2): "28af187bc9d07babd011128aa09ad5351b1670b74a2985dc40b44230172ecf57",
    ("balltree", 57): "9b8411c8a259ba00f48b054a612e58cb5935e2a574cc31ea6a0af14615ac6842",
    ("covertree", 2): "a6a4514c6144c239b0a6b31a8dbba58d9cf263f1aace45ec72a3341673a0324b",
    ("covertree", 57): "021b0031364bfe34ffeb585922c4c2c1482e8cf981627828f1fccad408d6ffb3",
    ("hkt", 2): "84516b4cb590165e6daea3940076cea2a5ba344065812a951eea10b3292d3c29",
    ("hkt", 57): "b23d2f4d86e33244beaf7e854fb0effd86e4548aa58a69132398f94c44823352",
    ("kdtree", 2): "777436b01188d7e44b75f79425f3b0a67d33260859b2d6d753e1584145b6456e",
    ("kdtree", 57): "8fc2748598dc5693c996252113ea3c3b75c6bf3d2d2c775d4aff47a11687109c",
    ("mtree", 2): "c5c307efda51eb57c1d359833834c41ceedf27cd98d131e6618222f1b3508846",
    ("mtree", 57): "6faeb8d3710447e22ed6a91180fb51ae4b464c16816f0ece4ce65be59add0cf9",
}


@pytest.mark.parametrize("d", [2, 57])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_tree_matches_pinned_digest(name, d):
    assert _digest(BUILDERS[name](_input(d))) == PINNED[(name, d)]
