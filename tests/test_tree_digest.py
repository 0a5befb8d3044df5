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
    ("covertree", 2): "4186d5319c00d91e870180b2e6c3dc3d50d6406e0cd28465100617f690491563",
    ("covertree", 57): "6779c074b30c9e7677be8f316a8e5e77248808c54c628daccd02cf95c3ff7d16",
    ("hkt", 2): "bfcd65817eaf9b2bee8afa4e96a23a23960b5d66339c2f700defc42b08977d28",
    ("hkt", 57): "f5af06b44bd8bbb8ee19a5284b6c299a1d68f1951ceacecca8d7c1640ae58cfe",
    ("kdtree", 2): "777436b01188d7e44b75f79425f3b0a67d33260859b2d6d753e1584145b6456e",
    ("kdtree", 57): "8fc2748598dc5693c996252113ea3c3b75c6bf3d2d2c775d4aff47a11687109c",
    ("mtree", 2): "fb00834470a3ea902c72c8cc83509ae0b06e82913110a64f7c014586b6ca9839",
    ("mtree", 57): "1c416d1efc472f90a427355ee41f5b351a13173e6dae109159fc3be68e5dacde",
}


@pytest.mark.parametrize("d", [2, 57])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_tree_matches_pinned_digest(name, d):
    assert _digest(BUILDERS[name](_input(d))) == PINNED[(name, d)]
