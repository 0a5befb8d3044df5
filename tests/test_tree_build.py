"""The level-wise tree builder against a node-at-a-time reference.

``reference_tree`` is the per-node builder the level-wise engine
replaced: it pops one node at a time, sums ``X[idx]``, and hands the
node to a per-node split that returns its children's point ids in tree
order. With a stack (``fifo=False``) and the ball or kd split below it
is the old builder, so every ``ArrayTree`` array of ``build_balltree``
and ``build_kdtree`` (and the kd boxes) must equal it bit for bit.

That holds at d = 1 too, where numpy sums a lone node's column
pairwise rather than row by row: there the engine gathers one node per
chunk.

HKT, M-tree and the cover tree draw random numbers per node. The engine
runs their rules level by level, so the reference run with a queue
(``fifo=True``, level order) must reproduce them bit for bit: their
trees differ from the old stack-built ones only by the order of the
draws.
"""
import numpy as np
import pytest

from repro.index import build_balltree, build_kdtree, covertree, hkt, mtree

FIELDS = (
    "pivot", "radius", "sv", "num", "psi", "height", "child_start",
    "child_idx", "pt_start", "pt_end", "subtree_end", "perm",
)


def reference_tree(X, split, capacity, fifo=False):
    n, _ = X.shape
    pivot, sv, radius, num, height, parent, start = ([] for _ in range(7))
    perm = np.empty(n, dtype=np.int64)
    todo = [(np.arange(n), -1, 0, 0)]  # (point ids, parent, depth, perm start)
    while todo:
        idx, par, depth, at = todo.pop(0 if fifo else -1)
        i = len(num)
        pts = X[idx]
        s = pts.sum(0)
        p = s / len(idx)
        d2 = np.einsum("ij,ij->i", pts - p, pts - p)
        for col, v in zip((pivot, sv, radius, num, height, parent, start),
                          (p, s, float(np.sqrt(d2.max())), len(idx), depth, par, at)):
            col.append(v)
        groups = split(idx, pts, d2) if len(idx) > capacity else None
        groups = [g for g in groups or [] if len(g)]
        if len(groups) < 2:
            perm[at : at + len(idx)] = idx
            continue
        starts = at + np.cumsum([0] + [len(g) for g in groups[:-1]])
        kids = [(g, i, depth + 1, s0) for g, s0 in zip(groups, starts)]
        todo.extend(kids if fifo else kids[::-1])
    pre = np.lexsort((height, start))
    rank = np.argsort(pre)
    pivot, sv = np.array(pivot)[pre], np.array(sv)[pre]
    par = np.array([rank[q] if q >= 0 else -1 for q in np.array(parent)[pre]])
    psi = np.array([0.0] + [float(np.linalg.norm(pivot[c] - pivot[par[c]])) for c in range(1, len(pre))])
    below = np.ones(len(pre), dtype=np.int64)
    for c in range(len(pre) - 1, 0, -1):
        below[par[c]] += below[c]
    num, pt_start = np.array(num)[pre], np.array(start)[pre]
    return dict(
        pivot=pivot, radius=np.array(radius)[pre], sv=sv, num=num, psi=psi,
        height=np.array(height)[pre],
        child_start=np.concatenate([[0], np.cumsum(np.bincount(par[1:], minlength=len(pre)))]),
        child_idx=np.argsort(par[1:], kind="stable") + 1,
        pt_start=pt_start, pt_end=pt_start + num,
        subtree_end=np.arange(len(pre)) + below, perm=perm,
    )


def ball_split(idx, pts, d2):
    p1 = pts[int(d2.argmax())]
    d1 = np.einsum("ij,ij->i", pts - p1, pts - p1)
    axis = pts[int(d1.argmax())] - p1
    if not np.any(axis):
        return None
    order = np.argsort(np.einsum("ij,j->i", pts, axis), kind="stable")
    half = len(idx) // 2
    return [idx[order[half:]], idx[order[:half]]]


def kd_split(idx, pts, d2):
    spread = pts.max(0) - pts.min(0)
    dim = int(spread.argmax())
    if spread[dim] <= 0:
        return None
    order = np.argsort(pts[:, dim], kind="stable")
    half = len(idx) // 2
    return [idx[order[half:]], idx[order[:half]]]


def duplicate_run(n, d):
    rng = np.random.default_rng(2024 + d)
    blobs = rng.normal(scale=6.0, size=(8, d))
    X = blobs[rng.integers(8, size=1500)] + rng.normal(size=(1500, d))
    X[:40] = X[40]  # a run of duplicate points
    return X[:n]


INPUTS = {
    "duplicate_run": duplicate_run,
    "identical": lambda n, d: np.full((n, d), 1.5),
    "negative_zero": lambda n, d: np.full((n, d), -0.0),
}


def _assert_same(ref, tree, names):
    for name in names:
        got = getattr(tree, name)
        assert got.shape == np.shape(ref[name]) and np.array_equal(got, ref[name]), name


@pytest.mark.parametrize("data", sorted(INPUTS))
@pytest.mark.parametrize("capacity", [1, 2, 30])
@pytest.mark.parametrize("d", [2, 3, 57, 784])
def test_ball_and_kd_trees_equal_per_node_builder(d, capacity, data):
    for n in sorted({1, capacity, capacity + 1, 1500}):
        X = INPUTS[data](n, d)
        _assert_same(reference_tree(X, ball_split, capacity), build_balltree(X, capacity=capacity), FIELDS)
        ref = reference_tree(X, kd_split, capacity)
        kt = build_kdtree(X, capacity=capacity)
        _assert_same(ref, kt.tree, FIELDS)
        for i in range(kt.tree.n_nodes):
            pts = X[ref["perm"][ref["pt_start"][i] : ref["pt_end"][i]]]
            assert np.array_equal(kt.bb_min[i], pts.min(0))
            assert np.array_equal(kt.bb_max[i], pts.max(0))


@pytest.mark.parametrize("capacity", [1, 2, 30])
def test_d1_trees_equal_per_node_builder(capacity):
    X = duplicate_run(1500, 1)
    for split, tree in ((ball_split, build_balltree(X, capacity=capacity)),
                        (kd_split, build_kdtree(X, capacity=capacity).tree)):
        _assert_same(reference_tree(X, split, capacity), tree, FIELDS)


RANDOM_BUILDERS = {"hkt": hkt, "mtree": mtree, "covertree": covertree}


@pytest.mark.parametrize("capacity", [8, 30])
@pytest.mark.parametrize("d", [2, 57])
@pytest.mark.parametrize("name", sorted(RANDOM_BUILDERS))
def test_random_builders_equal_level_order_reference(name, d, capacity, monkeypatch):
    module = RANDOM_BUILDERS[name]
    build = getattr(module, f"build_{name}")
    X = duplicate_run(1500, d)
    tree = build(X, capacity=capacity)

    def groups(rule):  # the per-node rule, as the reference's split
        def split(idx, pts, d2):
            label = rule(pts, d2)
            return None if label is None else [idx[label == g] for g in range(label.max() + 1)]
        return split

    monkeypatch.setattr(module, "per_node", groups)
    monkeypatch.setattr(module, "build_tree", lambda X, split, cap: reference_tree(X, split, cap, fifo=True))
    _assert_same(build(X, capacity=capacity), tree, FIELDS)
