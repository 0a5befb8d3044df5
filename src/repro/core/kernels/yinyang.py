"""Yinyang (§4.2.3) and Regroup (Kwedlo's per-iteration regrouping).

Centroids are clustered into t = ⌈k/10⌉ groups; each point keeps one
upper bound and t group lower bounds. The cascade is the paper's
global → group → local pipeline:

* global: skip the point if ``ub ≤ min_g lbg`` (after tightening ub);
* group: only groups with ``lbg < ub`` are scanned;
* local: inside a candidate group, centre j is skipped when its
  per-centre bound ``lbg_pre − δ_j`` (the pre-drift group bound minus
  that centre's own drift) already exceeds ub.

Yinyang fixes the grouping at iteration 0 (``fixed_groups``); Regroup
recomputes it every iteration and remaps the group bounds through the
per-centre bounds, keeping them valid under the new grouping.

Past the global filter the step works on (point, group) segments over a
group-contiguous centroid order: each survivor expands only its
candidate groups and its own centroid's group, and a group it does not
expand gets ``lbg_pre − group_delta_max``, the exact minimum of its
per-centre bounds (DESIGN.md §2).
"""
from __future__ import annotations

import numpy as np

from ...index.base import slices
from ..ctx import IterCtx
from ..linalg import candidate_dists, full_dists, pair_dists
from ..metrics import Counters
from .base import Kernel, group_layout, group_min, nearer, register, segment_min


class _YinyangBase(Kernel):
    needs = frozenset({"c2", "groups"})

    def init_state(self, X: np.ndarray) -> dict:
        st = super().init_state(X)
        st["ub"] = np.zeros(X.shape[0])
        st["lbg"] = None
        st["groups"] = None  # grouping the stored lbg refers to
        return st

    def _first(self, X, st, ctx, counters):
        D = full_dists(X, ctx.centers, counters, st["x2"], ctx.c2)
        rows = np.arange(len(X))
        a = D.argmin(1)
        d1 = D[rows, a]
        D[rows, a] = np.inf
        order, _, count, _ = group_layout(ctx.groups, ctx.n_groups)
        st["lbg"] = group_min(D, order, count)
        st["a"], st["ub"] = a, d1
        st["groups"] = ctx.groups.copy()
        counters.bound_update += st["lbg"].size + len(a)

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        if ctx.iter_idx == 0:
            self._first(X, st, ctx, counters)
            return
        n, k, t = X.shape[0], ctx.k, ctx.n_groups
        a, ub, lbg = st["a"], st["ub"], st["lbg"]
        gold, groups, delta = st["groups"], ctx.groups, ctx.delta
        # Per-centre bounds from the *pre-drift* group bounds: tighter
        # than group-level drift adjustment and valid under regrouping.
        ub += delta[a]
        counters.bound_update += n
        if np.array_equal(gold, groups):
            lbg_pre = lbg.copy()
            lbg -= ctx.group_delta_max[None, :]
            counters.bound_update += n * t
        else:  # Regroup: remap bounds onto the new grouping
            # New group g's bound is the min over its centres j of the
            # per-centre bound lbg[:, gold[j]] − δ_j. fl(x − δ) falls as δ
            # grows, so over the centres one old group sends to g that min
            # is lbg[:, old] − (their largest δ), bit for bit: one column
            # per (new, old) group pair instead of one per centre.
            t_old = lbg.shape[1]
            pair, inv = np.unique(groups * t_old + gold, return_inverse=True)
            dmax = np.zeros(len(pair))
            np.maximum.at(dmax, inv, delta)
            count = np.bincount(pair // t_old, minlength=t)
            lbg = group_min(lbg[:, pair % t_old] - dmax, np.arange(len(pair)), count)
            lbg_pre = lbg + 0.0  # already per new groups; reuse as pre
            st["lbg"] = lbg
            st["groups"] = groups.copy()
            counters.bound_update += n * k
        gmin = lbg.min(1)
        counters.bound_access += n * t + n
        cand = np.where(ub > gmin)[0]
        if len(cand) == 0:
            return
        d_a = pair_dists(X, ctx.centers, cand, a[cand], counters, x2=st["x2"], c2=ctx.c2)
        ub[cand] = d_a
        counters.bound_update += len(cand)
        fail = d_a > gmin[cand]
        R = cand[fail]
        if len(R) == 0:
            return
        m = len(R)
        ubR, aR = ub[R], a[R]
        counters.bound_access += m * k
        order, start, count, rank = group_layout(groups, t)
        # A survivor expands its candidate groups (group filter lbg < ub)
        # and its own centroid's group, which carries ub. Segments are
        # (row, group) in row-major order, so each row's pairs are one run.
        ok = np.take(lbg, R, axis=0) < ubR[:, None]
        expand = ok.copy()
        expand[np.arange(m), groups[aR]] = True
        seg_id = np.cumsum(expand.ravel()).reshape(m, t) - 1
        sr, sg = np.nonzero(expand)
        seg_len = count[sg]
        seg_start = np.cumsum(seg_len) - seg_len
        pos, seg = slices(start[sg], start[sg] + seg_len)
        cols = order[pos]

        def at(j):  # index of each row's pair with centroid j[row]
            g = groups[j]
            return seg_start[seg_id[np.arange(m), g]] + rank[j] - start[g]

        # Local filter: centre j's bound lbg_pre[g] − δ_j against ub, in
        # candidate groups only (−inf shuts the others); the own centroid
        # is already exact.
        bc = lbg_pre[R[sr], sg][seg]
        bc -= delta[cols]
        keep = bc < np.where(ok[sr, sg], ubR[sr], -np.inf)[seg]
        ia = at(aR)
        keep[ia] = False
        ask = np.flatnonzero(keep)
        rows, ccols = sr[seg[ask]], cols[ask]
        d = candidate_dists(X, ctx.centers, R, rows, ccols, counters, x2=st["x2"], c2=ctx.c2)
        # New centroid: the lowest-id minimum (Lloyd's argmin) over the
        # computed pairs, then against the own centroid at ub.
        dmin, jmin = segment_min(d, ccols, rows, m)
        stay = nearer(ubR, aR, dmin, jmin)
        jstar = np.where(stay, aR, jmin)
        # New group bounds: exact distances where computed, per-centre
        # bounds elsewhere; the newly assigned centre is excluded. A group
        # left unexpanded holds only per-centre bounds, whose min is
        # lbg_pre − (the group's largest δ) bit for bit.
        bc[ask] = d
        bc[ia] = ubR
        bc[at(jstar)] = np.inf
        new = np.take(lbg_pre, R, axis=0) - ctx.group_delta_max[None, :]
        new[sr, sg] = np.minimum.reduceat(bc, seg_start)
        lbg[R] = new
        a[R] = jstar
        ub[R] = np.where(stay, ubR, dmin)
        counters.bound_update += m * t + 2 * m


@register("yinyang")
class YinyangKernel(_YinyangBase):
    fixed_groups = True


@register("regroup")
class RegroupKernel(_YinyangBase):
    fixed_groups = False
