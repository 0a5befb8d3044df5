"""Array-based tree layout shared by every index (§5.1 "advanced index").

Definition 1 of the paper enriches each node with: pivot ``p`` (mean of
covered points), radius ``r``, sum vector ``sv``, distance-to-parent
``psi``, covered-point count ``num`` and height ``h``. We store nodes in
flat numpy arrays (struct-of-arrays) so a per-partition tree pickles
cheaply through Spark's cached-RDD path and traversals stay vectorized.

Children are stored CSR-style (``child_start``/``child_idx``) so binary
trees (Ball/kd/M/HKT) and multi-way trees (Cover-tree) share one layout.

Nodes are numbered in DFS pre-order, and leaves take their points in the
same order, so a subtree is two contiguous ranges: its nodes are the ids
``[i, subtree_end[i])`` and its points are ``perm[pt_start[i]:pt_end[i]]``.
Batch-assigning or resetting a whole subtree is therefore a slice write,
never a search over the m nodes. The frontier helpers below work on many
nodes at once over this layout; ``range_hits`` is the one range-query
engine (Search and ``ArrayTree.range_search``).

``build_tree`` makes every tree top-down, one level at a time: a level's
nodes are slices of one working permutation, split together (the
Ball-tree's and kd-tree's median cuts through ``median_cut``, the random
per-node rules of HKT, M-tree and Cover-tree through ``per_node``), and
numbered in pre-order once the last level is done.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np


@dataclass
class ArrayTree:
    pivot: np.ndarray       # (m, d) node mean
    radius: np.ndarray      # (m,) max distance pivot→covered point
    sv: np.ndarray          # (m, d) sum of covered points
    num: np.ndarray         # (m,) covered-point count
    psi: np.ndarray         # (m,) distance to parent pivot (0 at root)
    height: np.ndarray      # (m,) depth from root
    child_start: np.ndarray # (m+1,) CSR offsets into child_idx
    child_idx: np.ndarray   # flat child node ids
    pt_start: np.ndarray    # (m,) start of the node's perm slice
    pt_end: np.ndarray      # (m,) end of the node's perm slice
    subtree_end: np.ndarray # (m,) one past the last pre-order id under the node
    perm: np.ndarray        # (n,) permutation of point indices

    @property
    def n_nodes(self) -> int:
        return self.pivot.shape[0]

    def children(self, i: int) -> np.ndarray:
        return self.child_idx[self.child_start[i] : self.child_start[i + 1]]

    def leaf_mask(self) -> np.ndarray:
        return self.child_start[:-1] == self.child_start[1:]

    def nbytes(self) -> int:
        return sum(getattr(self, f.name).nbytes for f in fields(self))

    def range_search(self, X: np.ndarray, q: np.ndarray, thresh: float) -> np.ndarray:
        """Point ids within ``thresh`` of ``q`` (one query of :func:`range_hits`)."""
        return range_hits(self, X, q[None, :], np.array([thresh], dtype=np.float64))[0]

    def _covered(self, i: int) -> np.ndarray:
        """All point ids under node ``i`` (one contiguous ``perm`` slice)."""
        return self.perm[self.pt_start[i] : self.pt_end[i]]

    leaf_points = _covered


#: Floats in one (pairs, d) temporary of a blocked pair computation, so
#: a block holds ``BLOCK // d`` pairs and stays near cache size whatever
#: the frontier's width.
BLOCK = 1 << 15


def blocks(n_pairs: int, d: int) -> list[slice]:
    """Consecutive slices of at most ``BLOCK // d`` pairs covering ``n_pairs``."""
    step = max(1, BLOCK // d)
    return [slice(s, s + step) for s in range(0, n_pairs, step)]


def slices(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``arange(lo[r], hi[r])`` over rows r, and each element's row."""
    counts = hi - lo
    rows = np.repeat(np.arange(len(lo)), counts)
    pos = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    pos += np.arange(len(rows))
    return pos, rows


def children(tree: ArrayTree, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Child ids of every node in ``nodes``, and each child's row in ``nodes``."""
    pos, rows = slices(tree.child_start[nodes], tree.child_start[nodes + 1])
    return tree.child_idx[pos], rows


def covered(tree: ArrayTree, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point ids under every node in ``nodes`` (disjoint subtrees), and their rows."""
    pos, rows = slices(tree.pt_start[nodes], tree.pt_end[nodes])
    return tree.perm[pos], rows


def range_hits(
    tree: ArrayTree, X: np.ndarray, Q: np.ndarray, thresh: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Every (point, query) pair with ``d(X[point], Q[query]) <= thresh[query]``.

    All queries descend together: a frontier row is (node, query), so the
    number of Python steps is the tree depth. A row whose ball lies beyond
    the threshold is dropped, one whose ball lies within it yields its
    whole perm slice, a leaf checks its points and an inner node expands
    into its children. Returns the hit points, their queries, and the
    number of node rows and leaf-point distances evaluated.
    """
    is_leaf = tree.leaf_mask()
    qs = np.arange(len(Q))
    nodes = np.zeros(len(Q), dtype=np.int64)
    hit_pts, hit_qs = [], []
    visits = leaf_dists = 0
    while len(nodes):
        visits += len(nodes)
        t = thresh[qs]
        diff = np.take(Q, qs, axis=0) - np.take(tree.pivot, nodes, axis=0)
        dq = np.linalg.norm(diff, axis=1)
        r = tree.radius[nodes]
        live = dq - r <= t
        whole = live & (dq + r <= t)
        leaf = live & ~whole & is_leaf[nodes]
        pts, rows = covered(tree, nodes[whole])
        hit_pts.append(pts)
        hit_qs.append(qs[whole][rows])
        pts, rows = covered(tree, nodes[leaf])
        q = qs[leaf][rows]
        near = np.empty(len(pts), dtype=bool)
        for b in blocks(len(pts), X.shape[1]):
            diff = np.take(X, pts[b], axis=0) - np.take(Q, q[b], axis=0)
            near[b] = np.linalg.norm(diff, axis=1) <= thresh[q[b]]
        leaf_dists += len(pts)
        hit_pts.append(pts[near])
        hit_qs.append(q[near])
        inner = live & ~whole & ~leaf
        nodes, rows = children(tree, nodes[inner])
        qs = qs[inner][rows]
    return np.concatenate(hit_pts), np.concatenate(hit_qs), visits, leaf_dists


#: A level split: ``split(P, n, d2) -> (order, sizes)``; see :func:`build_tree`.
Split = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def build_tree(X: np.ndarray, split: Split, capacity: int) -> ArrayTree:
    """Top-down builder that splits a whole tree level per step.

    Every node of a level is a contiguous slice of one working
    permutation of the points. The level is cut into chunks of
    consecutive nodes, each gathered as a padded ``(L, nodes, d)`` array
    of at most ``BLOCK`` floats (a longer node is a chunk of its own), so
    the chunk's temporaries stay near cache size. A fixed number of
    numpy steps per chunk gives every node its sum (its points added in
    their current order), pivot and radius, and the squared distances
    ``d2`` of its points to its pivot. The nodes with more than
    ``capacity`` points then go to ``split(P, n, d2)``: node i's ``n[i]``
    points fill ``P[:n[i], i]``, and ``d2[:, i]`` is ``-inf`` past them.
    It returns ``order``, whose column i lists node i's points child by
    child (``order[:n[i], i]`` permutes ``range(n[i])``), and ``sizes``,
    one row of child sizes per node, in the same order. Empty children
    are dropped, and a node left with fewer than two is a leaf. The
    children's slices tile their parent's; they make up the next level.

    Once every level is split, the nodes are numbered in DFS pre-order,
    by ``(pt_start, depth)``, so every subtree covers one ``perm`` slice.
    A node's sum adds its points as ``X[idx].sum(0)`` does (one at a
    time for d >= 2; pairwise at d = 1, where each chunk is one node), so
    the tree is bit for bit the one a node-at-a-time builder makes
    (``tests/test_tree_build.py``).
    """
    n, d = X.shape
    # Padded rows per chunk. At d = 1 numpy sums a lone node's column
    # pairwise but a chunk of several nodes row by row, so there every
    # chunk holds one node.
    budget = BLOCK // d if d > 1 else 1
    perm = np.arange(n)
    start, size, parent = np.zeros(1, np.int64), np.array([n]), np.array([-1])
    levels = []
    while len(start):
        node_id = sum(len(lv[0]) for lv in levels) + np.arange(len(start))
        stats, kids = [], []
        c = 0
        while c < len(start):
            win = size[c : c + budget]
            fit = np.maximum.accumulate(win) * np.arange(1, len(win) + 1) <= budget
            j = c + max(1, int(np.count_nonzero(fit)))
            node_stats, (cs, cn, cp) = _chunk(X, perm, start[c:j], size[c:j], split, capacity)
            stats.append(node_stats)
            kids.append((cs, cn, node_id[c + cp]))
            c = j
        levels.append((start, size, parent, *map(np.concatenate, zip(*stats))))
        start, size, parent = map(np.concatenate, zip(*kids))

    start, size, parent, pivot, sv, radius = map(np.concatenate, zip(*levels))
    depth = np.repeat(np.arange(len(levels)), [len(lv[0]) for lv in levels])
    pre = np.lexsort((depth, start))  # pre-order position -> creation id
    rank = np.empty_like(pre)
    rank[pre] = np.arange(len(pre))
    pivot, sv = np.take(pivot, pre, axis=0), np.take(sv, pre, axis=0)
    radius, num, pt_start = radius[pre], size[pre], start[pre]
    parent_arr = rank[parent[pre[1:]]]
    m = len(pre)
    # psi is np.linalg.norm(child - parent), whose BLAS dot rounds by the
    # vector's 16-byte alignment (a fresh vector is aligned). A (1, d) @
    # (d, 1) matmul calls that dot per row, so every row starts aligned.
    diff = np.empty((m - 1, d + d % 2))[:, :d]
    np.subtract(pivot[1:], np.take(pivot, parent_arr, axis=0), out=diff)
    psi = np.zeros(m)
    psi[1:] = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    child_start = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent_arr, minlength=m), out=child_start[1:])
    pt_end = pt_start + num
    # pt_start is non-decreasing in pre-order, and every node covers at
    # least one point, so the first id whose slice starts at or after
    # pt_end[i] is the first id outside i's subtree.
    subtree_end = np.maximum(np.searchsorted(pt_start, pt_end), np.arange(1, m + 1))
    return ArrayTree(
        pivot=pivot,
        radius=radius,
        sv=sv,
        num=num,
        psi=psi,
        height=depth[pre],
        child_start=child_start,
        child_idx=np.argsort(parent_arr, kind="stable") + 1,
        pt_start=pt_start,
        pt_end=pt_end,
        subtree_end=subtree_end,
        perm=perm,
    )


def _chunk(X, perm, start, size, split, capacity):
    """Statistics of consecutive nodes, and their children; reorders ``perm``.

    Returns ``(pivot, sv, radius)`` and ``(start, size, parent)`` of the
    children, ``parent`` as a column of this chunk.
    """
    m, L = len(size), int(size.max())
    rank = np.arange(L)[:, None]
    pad = rank >= size
    pos = np.minimum(start + rank, len(perm) - 1)
    P = np.take(X, perm[pos], axis=0)
    P[pad] = -0.0  # adds nothing to a sum
    sv = P.sum(0)
    pivot = sv / size[:, None]
    d2 = sq_rows(P, pivot)
    d2[pad] = -np.inf
    radius = np.sqrt(d2.max(0, initial=0.0))
    stats = (pivot, sv, radius)

    cols = np.flatnonzero(size > capacity)
    if len(cols) < m:
        P, d2, pad = P[:, cols], d2[:, cols], pad[:, cols]
    order, sizes = split(P, size[cols], d2) if len(cols) else (None, np.zeros((0, 2), int))
    keep = np.count_nonzero(sizes, axis=1) >= 2
    cols, sizes = cols[keep], sizes[keep]
    if len(cols):
        src = pos[order[:, keep], cols][~pad[:, keep]]
        dst = pos[:, cols][~pad[:, keep]]
        perm[dst] = perm[src]
    k = np.count_nonzero(sizes, axis=1)
    child_size = sizes[sizes > 0]
    offset = np.cumsum(child_size) - child_size
    first = np.cumsum(k) - k
    child_start = offset + np.repeat(start[cols] - offset[first], k)
    return stats, (child_start, child_size, np.repeat(cols, k))


def sq_rows(P: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distance of every point in ``P`` (L, m, d) to its node's ``c``.

    Each distance is ``einsum`` of the difference, as a per-node builder
    takes it; the differences go through one buffer of at most ``BLOCK``
    floats, a node's rows at a time when it is longer than that.
    """
    L, m, d = P.shape
    out = np.empty((L, m))
    step = max(1, BLOCK // (m * d))
    buf = np.empty((min(step, L), m, d))
    for s in range(0, L, step):
        diff = np.subtract(P[s : s + step], c, out=buf[: min(step, L - s)])
        out[s : s + step] = np.einsum("lsd,lsd->ls", diff, diff)
    return out


def median_cut(key: np.ndarray, n: np.ndarray, ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split every node in ``ok`` at the median of its points' ``key`` (L, m).

    The ``n // 2`` lowest keys form the second child and the rest the
    first, each in stable key order, as a per-node stable ``argsort`` cut
    at ``n // 2`` with the upper half explored first. Returns the
    ``(order, sizes)`` of a level split.
    """
    t = np.arange(key.shape[0])
    live = t < n[:, None]
    key = np.where(live, key.T, np.inf)
    ranked = np.argsort(key, axis=1)
    # An unstable sort is faster where keys are distinct, as in the
    # benchmark's data; only the nodes with tied keys are re-sorted stably.
    ranked_key = np.take_along_axis(key, ranked, 1)
    tied = ((ranked_key[:, 1:] == ranked_key[:, :-1]) & live[:, 1:]).any(1)
    ranked[tied] = np.argsort(key[tied], axis=1, kind="stable")
    half = n // 2
    # Rotate each node's ranks by half: the upper half first. Padding
    # ranks stay in range and are never read.
    src = t + half[:, None]
    src -= np.where(src >= n[:, None], n[:, None], 0)
    sizes = np.where(ok[:, None], np.stack([n - half, half], axis=1), 0)
    return np.take_along_axis(ranked, src, 1).T, sizes


def per_node(rule: Callable[[np.ndarray, np.ndarray], np.ndarray | None]) -> Split:
    """A level split that runs ``rule(pts, d2)`` on one node at a time.

    ``rule`` gets a node's points and their squared distances to its
    pivot, and returns every point's child number (children in tree
    order), or ``None`` to make the node a leaf. Each child keeps its
    points in their order within the node.
    """
    def split(P: np.ndarray, n: np.ndarray, d2: np.ndarray):
        L, m = P.shape[:2]
        label = np.full((m, L), L)  # padding sorts last
        for i, k in enumerate(n):
            got = rule(np.ascontiguousarray(P[:k, i]), d2[:k, i])
            label[i, :k] = 0 if got is None else got
        live = label < L
        width = int(label[live].max()) + 1
        sizes = np.bincount(
            np.repeat(np.arange(m) * width, n) + label[live], minlength=m * width
        ).reshape(m, width)
        return np.argsort(label, axis=1, kind="stable").T, sizes

    return split
