"""UniK — the paper's unified node+point pruning pipeline (§5).

Nodes and points flow through the same global → local bound cascade,
with a node's radius r folded into the tests (r = 0 for points,
Equations 9–11). Concretely:

* **Batch assignment with cached slack.** When a node is assigned
  wholesale, we cache its *slack* — how far the runner-up lower bound
  exceeds ``d1 + 2r`` — and in later iterations decrement it by the
  worst-case drift (own centroid's drift + the largest other drift,
  Equation 10). While the slack stays positive the whole subtree is
  kept without touching a single distance.
* **Sound candidate inheritance.** Root traversals pass a shrinking
  candidate set down the tree together with ``excluded_lb`` — a lower
  bound on any covered point's distance to every *pruned* centroid —
  so cached slacks and leaf point bounds stay valid against all k
  centroids, not just the inherited candidates (the paper's Equation 12
  bound passing, realized through the ball geometry).
* **Per-point bounds at the frontier.** Leaves whose candidate set
  cannot be collapsed dissolve into individually-tracked points with
  Hamerly-style ub/lb bounds seeded from the node evaluation.
* **Adaptive traversal (§5.3).** Iteration 0 traverses from the root
  (index-multiple style); iteration 1 runs the flat cluster-object scan
  (index-single style); whichever was faster is used from iteration 2
  on, mirroring the paper's index-single / index-multiple switch.
"""
from __future__ import annotations

import numpy as np

from ...index import BALL_INDEXES
from ...index.base import children, covered, slices
from ..ctx import IterCtx
from ..linalg import candidate_dists
from ..metrics import Counters
from .base import Kernel, register, segment_min, segment_top2, top2
from .hamerly import HamerlyKernel
from .index_kernel import leaf_pairs, node_dists


def _hamerly_points(X, idx, st, ctx, counters: Counters) -> None:
    """Hamerly's cascade over the individually-tracked points ``idx``."""
    if len(idx) == 0:
        return
    sub = {key: st[key][idx] for key in ("a", "ub", "lb", "x2")}
    HamerlyKernel().step(np.take(X, idx, axis=0), sub, ctx, counters)
    for key in ("a", "ub", "lb"):
        st[key][idx] = sub[key]


@register("unik")
class UniKKernel(Kernel):
    needs = frozenset({"cc", "s", "c2"})

    def __init__(self, index: str = "balltree", traversal: str = "adaptive"):
        if index not in BALL_INDEXES:
            raise KeyError(f"unknown ball index {index!r}")
        if traversal not in ("adaptive", "index-single", "index-multiple"):
            raise ValueError(traversal)
        self.index = index
        self.traversal = traversal

    def init_state(self, X: np.ndarray) -> dict:
        st = super().init_state(X)
        st["tree"] = BALL_INDEXES[self.index](X)
        return st

    # -- node evaluation --------------------------------------------------

    def _decay_slacks(self, st, ctx, counters: Counters) -> None:
        act = np.where(st["node_active"])[0]
        if len(act):
            ass = st["node_assigned"][act]
            other = np.where(ass == ctx.delta_arg1, ctx.delta_max2, ctx.delta_max1)
            st["node_slack"][act] -= ctx.delta[ass] + other
            counters.bound_update += len(act)
            counters.bound_access += len(act)
        ubn = np.where(st["node_active"] | st["frontier"])[0]
        if len(ubn):
            st["node_ub"][ubn] += ctx.delta[st["node_assigned"][ubn]]
            counters.bound_update += len(ubn)

    def _batch_assign(self, st, nodes, j) -> None:
        """Assign each node's whole subtree to its centroid in ``j``."""
        tree = st["tree"]
        pts, rows = covered(tree, nodes)
        st["a"][pts] = j[rows]
        # Reclaim any individually-tracked points and cached descendants:
        # the whole subtree is now proven nearest to j, so their stale
        # bounds/assignments must not survive.
        st["pt_mask"][pts] = False
        desc, _ = slices(nodes + 1, tree.subtree_end[nodes])
        st["dissolved"][desc] = False
        st["node_active"][desc] = False
        st["frontier"][desc] = False
        st["node_active"][nodes] = True
        st["frontier"][nodes] = False
        st["node_assigned"][nodes] = j

    def _descend(self, X, st, ctx, counters, nodes, cand, excl) -> None:
        """Frontier-at-once traversal from rows (node, candidate mask, excl_lb).

        ``excl_lb`` lower-bounds any covered point's distance to every
        centroid outside the mask. Each row batch-assigns, dissolves or
        keeps a leaf as frontier, or expands into its children; the rows
        of one step are disjoint subtrees, so their writes never meet.
        """
        tree = st["tree"]
        is_leaf = tree.leaf_mask()
        while len(nodes):
            counters.node_access += len(nodes)
            # Dissolved leaves' points are tracked individually; an active
            # node whose cached Eq-10 slack still holds keeps its subtree.
            act = st["node_active"][nodes]
            live = ~st["dissolved"][nodes] & ~(act & (st["node_slack"][nodes] > 0))
            st["node_active"][nodes[act & live]] = False
            nodes, cand, excl = nodes[live], cand[live], excl[live]
            D = node_dists(tree, nodes, cand, ctx, counters)
            b, d1, d2, _ = top2(D)
            r = tree.radius[nodes]
            ub = d1 + r
            # Runner-up lower bound over ALL centroids for any covered point.
            slack = np.minimum(d2 - r, excl) - ub
            bat = slack > 0
            self._batch_assign(st, nodes[bat], b[bat])
            st["node_slack"][nodes[bat]] = slack[bat]
            st["node_ub"][nodes[bat]] = ub[bat]
            keep = D <= ((d1 + 2.0 * r) * (1 + 1e-9))[:, None]  # margin: see ball_keep
            excl = np.minimum(excl, np.where(keep, np.inf, D - r[:, None]).min(1))
            leaf = ~bat & is_leaf[nodes]
            if leaf.any():
                self._eval_leaves(X, st, ctx, counters, nodes[leaf], keep[leaf],
                                  excl[leaf], b[leaf], ub[leaf])
            inner = ~(bat | leaf)
            nodes, rows = children(tree, nodes[inner])
            cand, excl = np.take(keep[inner], rows, axis=0), excl[inner][rows]

    def _eval_leaves(self, X, st, ctx, counters, leaves, cand, excl, b, ub) -> None:
        """Assign the points of leaves that could not be batch-assigned."""
        tree = st["tree"]
        dis = cand.sum(1) > max(8, ctx.k // 4)
        stay = leaves[~dis]
        if len(stay):
            # Well-pruned leaf: stays in the tree as a frontier node,
            # re-evaluated each iteration from its pivot ball.
            pts, _, pair_pt, cols = leaf_pairs(tree, stay, cand[~dis])
            vals = candidate_dists(X, ctx.centers, pts, pair_pt, cols, counters,
                                   x2=st["x2"], c2=ctx.c2)
            st["a"][pts] = segment_min(vals, cols, pair_pt, len(pts))[1]
            st["frontier"][stay] = True
            st["node_assigned"][stay] = b[~dis]
            st["node_ub"][stay] = ub[~dis]
        gone = leaves[dis]
        if len(gone):
            # Poorly-pruned leaf: hand its points to per-point bounds (the
            # sequential side of the unified pipeline). Its rows' distances
            # come from full_dists, not pair_dists: a per-pair dot rounds
            # differently, and where a centroid sits on a data point the
            # square root turns that into ~1e-7, enough for a seeded ub to
            # undercut the same distance from the dense scans.
            pts, rows, pair_pt, cols = leaf_pairs(tree, gone, cand[dis])
            vals = candidate_dists(X, ctx.centers, pts, pair_pt, cols, counters,
                                   x2=st["x2"], c2=ctx.c2, dense_threshold=0.0)
            d1, c1, d2, _ = segment_top2(vals, cols, pair_pt, len(pts))
            st["a"][pts] = c1
            st["ub"][pts] = d1
            st["lb"][pts] = np.minimum(d2, excl[dis][rows])
            st["pt_mask"][pts] = True
            st["dissolved"][gone] = True
            st["frontier"][gone] = False
            counters.bound_update += 2 * len(pts)

    # -- passes ------------------------------------------------------------

    def _mode(self, st, t: int) -> str:
        """The pass iteration ``t`` runs: "root" (index-multiple) or "flat"
        (index-single); adaptive keeps the one with less work (cost-model
        units) in iterations 0 and 1 from iteration 2 on (§5.3)."""
        if t == 0 or self.traversal == "index-multiple":
            return "root"
        if t == 1 or self.traversal == "index-single":
            return "flat"
        if st["mode"] is None:
            st["mode"] = "root" if st["t_root"] <= st["t_flat"] else "flat"
        return st["mode"]

    def _cached_rows(self, st, ctx, counters: Counters):
        """The flat pass's (node, mask, excl) rows: cached nodes to re-validate.

        An active node whose slack ran out, or a frontier leaf, restarts
        from an Exponion-style candidate ball around its cached centroid
        (Eq. 6 applied to pivots): for any point under node i with
        d(x, c_b) ≤ node_ub, the true nearest c* has cc(b, c*) ≤ 2·ub;
        every excluded centroid is ≥ cc(b, j) − ub away from any such x.
        Every active or frontier node has a cached centroid.
        """
        failed = np.where(
            (st["node_active"] & (st["node_slack"] <= 0)) | st["frontier"]
        )[0]
        counters.node_access += int(st["node_active"].sum())
        st["node_active"][failed] = False
        b = st["node_assigned"][failed]
        ubn = st["node_ub"][failed]
        ccb = np.take(ctx.cc, b, axis=0)
        ball = ccb <= 2.0 * ubn[:, None]
        ball[np.arange(len(failed)), b] = True
        excl = np.where(ball, np.inf, ccb).min(1) - ubn
        counters.bound_access += ctx.k * len(failed)
        return failed, ball, excl

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        t = ctx.iter_idx
        if t == 0:  # the node caches and point bounds start empty
            m, n = st["tree"].n_nodes, X.shape[0]
            st.update(
                node_active=np.zeros(m, dtype=bool),    # batch-assigned subtree roots
                node_assigned=np.full(m, -1, dtype=np.int64),
                node_slack=np.zeros(m),                 # remaining Eq-10 slack
                node_ub=np.zeros(m),                    # d(p, c_b) + r, drift-decayed
                frontier=np.zeros(m, dtype=bool),       # leaves re-evaluated per iter
                dissolved=np.zeros(m, dtype=bool),      # leaf handed to point bounds
                pt_mask=np.zeros(n, dtype=bool),        # individually-tracked points
                ub=np.zeros(n),
                lb=np.zeros(n),
                mode=None,
                t_root=None,
                t_flat=None,
            )
        mode = self._mode(st, t)
        d = X.shape[1]
        w0 = counters.work_units(d)
        # Points dissolved in *earlier* iterations go through the bound
        # cascade; points dissolving during this pass get exact bounds.
        pts_prev = np.where(st["pt_mask"])[0]
        self._decay_slacks(st, ctx, counters)
        if mode == "root":
            rows = (np.zeros(1, dtype=np.int64), np.ones((1, ctx.k), dtype=bool),
                    np.full(1, np.inf))
        else:
            rows = self._cached_rows(st, ctx, counters)
        self._descend(X, st, ctx, counters, *rows)
        _hamerly_points(X, pts_prev, st, ctx, counters)
        if t == 0:
            st["t_root"] = counters.work_units(d) - w0
        elif t == 1 and self.traversal == "adaptive":
            st["t_flat"] = counters.work_units(d) - w0
