"""Pre-order tree layout, and the UniK node-state invariant that makes a
frontier-at-once traversal equal to a node-at-a-time DFS."""
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from repro.core.kernels import make_kernel
from repro.core.kernels.unik import UniKKernel
from repro.core.runner import LocalRunner
from repro.index import BALL_INDEXES, build_balltree, build_kdtree
from repro.synth_data import gaussian_mixture


@pytest.fixture(scope="module")
def X():
    return gaussian_mixture(n=600, d=3, n_centers=6, cluster_std=0.7, seed=4)


TREES = [(name, lambda X, b=b: b(X, capacity=8)) for name, b in BALL_INDEXES.items()]
TREES.append(("kdtree", lambda X: build_kdtree(X, capacity=4).tree))


def _descendants(tree, i):
    out, stack = [], list(tree.children(i))
    while stack:
        c = stack.pop()
        out.append(int(c))
        stack.extend(tree.children(c))
    return sorted(out)


@pytest.mark.parametrize("name,build", TREES, ids=[n for n, _ in TREES])
def test_ids_are_preorder(X, name, build):
    tree = build(X)
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(sorted(tree.children(i), reverse=True))
    assert order == list(range(tree.n_nodes))


@pytest.mark.parametrize("name,build", TREES, ids=[n for n, _ in TREES])
def test_subtree_is_an_id_range_and_a_perm_slice(X, name, build):
    tree = build(X)
    leaves = tree.leaf_mask()
    for i in range(tree.n_nodes):
        end = int(tree.subtree_end[i])
        assert _descendants(tree, i) == list(range(i + 1, end))
        # The leaves in [i, end), in id order, tile i's perm slice exactly.
        ids = [j for j in range(i, end) if leaves[j]]
        assert tree.pt_start[ids[0]] == tree.pt_start[i]
        assert tree.pt_end[ids[-1]] == tree.pt_end[i]
        assert (tree.pt_start[ids[1:]] == tree.pt_end[ids[:-1]]).all()


def test_kdtree_boxes_are_tight(X):
    kt = build_kdtree(X, capacity=4)
    for i in range(kt.tree.n_nodes):
        pts = X[kt.tree._covered(i)]
        assert (kt.bb_min[i] == pts.min(0)).all()
        assert (kt.bb_max[i] == pts.max(0)).all()


def _arrays(obj):
    """(name, array) for every ndarray field of a tree, nested trees included."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if is_dataclass(v):
            yield from _arrays(v)
        elif isinstance(v, np.ndarray):
            yield f.name, v


@pytest.mark.parametrize("name,build", [*BALL_INDEXES.items(), ("kdtree", build_kdtree)])
def test_tree_arrays_are_c_contiguous(X, name, build):
    # np.take copies a strided source whole before every gather.
    arrays = dict(_arrays(build(X)))
    assert name != "kdtree" or {"bb_min", "bb_max"} <= arrays.keys()
    assert [f for f, v in arrays.items() if not v.flags.c_contiguous] == []


@pytest.mark.parametrize("method", ["index", "unik", "search"])
def test_one_ball_tree(X, method):
    """The tree a kernel builds is build_balltree(X), array for array: a
    build-once ``prepare`` may then hand every such kernel the same tree."""
    ref = dict(_arrays(build_balltree(X)))
    tree = dict(_arrays(make_kernel(method).init_state(X)["tree"]))
    assert tree.keys() == ref.keys()
    for f, v in ref.items():
        np.testing.assert_array_equal(tree[f], v, err_msg=f"{method}.{f}")


def _antichain(st) -> bool:
    """No active, frontier or dissolved node lies under another one."""
    tree = st["tree"]
    marked = st["node_active"] | st["frontier"] | st["dissolved"]
    stack = [(0, False)]
    while stack:
        i, above = stack.pop()
        if marked[i] and above:
            return False
        stack.extend((int(c), above or bool(marked[i])) for c in tree.children(i))
    return True


class _Checked(UniKKernel):
    def assign(self, X, st, ctx, counters):
        super().assign(X, st, ctx, counters)
        self.log.append((_antichain(st), st["mode"]))


MIXTURES = {  # the adaptive switch picks the root traversal on one, flat on the other
    "2d": (dict(n=2500, d=2, n_centers=20, cluster_std=0.4, seed=1), "root"),
    "57d": (dict(n=1500, d=57, n_centers=12, cluster_std=1.5, uniform_frac=0.2, seed=6), "flat"),
}


@pytest.mark.parametrize("traversal", ["adaptive", "index-single", "index-multiple"])
@pytest.mark.parametrize("mix", list(MIXTURES))
def test_unik_node_states_form_antichain(mix, traversal):
    cfg, mode = MIXTURES[mix]
    kern = _Checked(traversal=traversal)
    kern.log = []
    LocalRunner().run(gaussian_mixture(**cfg), 40, kern, n_iters=8, seed=0)
    assert len(kern.log) == 8
    assert all(ok for ok, _ in kern.log)
    if traversal == "adaptive":
        assert kern.log[-1][1] == mode


def test_unik_rejects_unknown_index():
    with pytest.raises(KeyError, match="kdtree"):
        make_kernel("unik", index="kdtree")
