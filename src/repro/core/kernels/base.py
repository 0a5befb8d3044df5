"""Kernel contract and registry.

A *kernel* is one accelerated exact-Lloyd assignment strategy. Kernels
are pure numpy objects: per-partition state lives in a plain dict (so it
pickles through Spark's cached-RDD path), per-iteration shared inputs
arrive in an :class:`~repro.core.ctx.IterCtx` built driver-side.

Contract:

* ``needs`` — the IterCtx fields the kernel reads, and only those (see
  ``ctx.make_ctx``): the driver builds, broadcasts and charges nothing
  else.
* ``fixed_groups`` — Yinyang-style kernels that freeze centroid groups
  after the first iteration set this; the runner then reuses iteration
  0's grouping for every subsequent ctx.
* ``init_state(X)`` — allocate per-partition state. The base state is
  ``a`` (int64, −1 = unassigned) and ``x2``, the points' squared norms,
  which every full scan and pair distance reads; kernels extend it
  through ``super().init_state(X)``.
* ``assign(X, st, ctx, counters)`` — run one assignment step in place.
  When ``ctx.iter_idx == 0`` the kernel performs its initial full
  assignment and bound setup.
* ``footprint(st)`` — the Figure-10 auxiliary space: every array and
  tree in ``st`` except ``a``. Kernels do not override it.

Every kernel is exact: after each call, ``st['a']`` must equal plain
Lloyd's assignment for the same centroids, ties included. Every kernel
breaks an exact distance tie like Lloyd's ``argmin``, toward the lowest
centroid id. Two decisions carry that rule, each behind one function:
every dense distance comes from ``linalg._dist_blocks`` (through
``scan_dists``, ``full_dists`` or ``candidate_dists``' dense path) and
every per-pair one from ``linalg.pair_dists``; every pick goes through
``argmin``, ``top2``, ``segment_min`` or ``segment_top2`` below, and a
kernel that settles a candidate against its assigned centroid does so
with ``nearer``.
No bound test may skip a centroid that ties the assigned one and has a
lower id, so a skip or prune needs a strict inequality wherever
equality would leave such a tie unseen.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from ...index import KDTree
from ...index.base import ArrayTree
from ..ctx import IterCtx
from ..metrics import Counters


class Kernel:
    name: str = "base"
    needs: frozenset[str] = frozenset()
    fixed_groups: bool = False
    #: True → the runner re-reads every point to refine (classic Lloyd);
    #: False → incremental sum-vector refinement over moved points only.
    traditional_refine: bool = False

    def init_state(self, X: np.ndarray) -> dict:
        return {
            "a": np.full(X.shape[0], -1, dtype=np.int64),
            "x2": np.einsum("ij,ij->i", X, X),
        }

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        raise NotImplementedError

    def footprint(self, st: dict) -> int:
        """Bytes of auxiliary state (bounds, norms, indexes) — Figure-10 metric."""
        tot = 0
        for key, v in st.items():
            if key == "a":
                continue
            if isinstance(v, np.ndarray):
                tot += v.nbytes
            elif isinstance(v, (ArrayTree, KDTree)):
                tot += v.nbytes()
        return tot


REGISTRY: dict[str, Callable[..., Kernel]] = {}


def register(name: str):
    def deco(cls):
        cls.name = name
        REGISTRY[name] = cls
        return cls
    return deco


def make_kernel(name: str, **kwargs) -> Kernel:
    if name not in REGISTRY:
        raise KeyError(f"unknown kernel {name!r}; have {sorted(REGISTRY)}")
    return REGISTRY[name](**kwargs)


# ---------------------------------------------------------------------------
# Nearest-centroid picks: the lowest id wins among equal values.


def argmin(D: np.ndarray) -> np.ndarray:
    """The nearest column per row of a dense distance matrix, lowest id among equals."""
    return D.argmin(1)


def top2(D: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, d1, d2, arg2) per row of a dense distance matrix: the nearest
    column and the runner-up, each the lowest id among equal values.

    With one column the runner-up is (+inf, 0). ``D`` is left as passed.
    """
    rows = np.arange(D.shape[0])
    a = D.argmin(1)
    d1 = D[rows, a]
    D[rows, a] = np.inf
    arg2 = D.argmin(1)
    d2 = D[rows, arg2]
    D[rows, a] = d1
    return a, d1, d2, arg2


def nearer(d: np.ndarray, j: np.ndarray, d_ref: np.ndarray, j_ref: np.ndarray) -> np.ndarray:
    """Where centroid ``j`` at distance ``d`` beats ``j_ref`` at ``d_ref``:
    strictly nearer, or equally near with the lower id (Lloyd's ``argmin``)."""
    return (d < d_ref) | ((d == d_ref) & (j < j_ref))


def segment_min(
    vals: np.ndarray, cols: np.ndarray, seg: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (min value, its col) over ragged (row, col) pairs.

    Pair i is ``(seg[i], cols[i])`` with value ``vals[i]``, for rows
    0..n−1; ``seg`` is non-decreasing, and each row's cols may come in any
    order. Among equal values the lowest col wins; a row with no pairs
    gets (+inf, −1).
    """
    best = np.full(n, np.inf)
    arg = np.full(n, -1, dtype=np.int64)
    if len(vals) == 0:
        return best, arg
    starts = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
    best[seg[starts]] = np.minimum.reduceat(vals, starts)
    # Each row's minimum: its first hit, then any tied hit with a lower col.
    hit = np.flatnonzero(vals == best[seg])
    row = seg[hit]
    tie = np.concatenate(([False], row[1:] == row[:-1]))
    arg[row[~tie]] = cols[hit[~tie]]
    np.minimum.at(arg, row[tie], cols[hit[tie]])
    return best, arg


def segment_top2(
    vals: np.ndarray, cols: np.ndarray, seg: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d1, c1, d2, c2) per row over ragged pairs, as :func:`segment_min`
    twice: the runner-up is the minimum once the winning pair is left out.
    A row with fewer than two pairs gets +inf / −1 in the missing slots."""
    d1, c1 = segment_min(vals, cols, seg, n)
    rest = cols != c1[seg]
    d2, c2 = segment_min(vals[rest], cols[rest], seg[rest], n)
    return d1, c1, d2, c2


# ---------------------------------------------------------------------------
# Centroid groups (Yinyang, Regroup, Full).


def group_min(M: np.ndarray, order: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Per-group column minima of ``M`` → (rows × t), where group g owns the
    ``count[g]`` columns after groups 0..g−1 in ``order``; an empty group
    gives +inf."""
    out = np.full((M.shape[0], len(count)), np.inf)
    ends = np.cumsum(count)
    for g in np.flatnonzero(count):
        out[:, g] = M[:, order[ends[g] - count[g] : ends[g]]].min(1)
    return out


def group_layout(groups: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group-contiguous centroid order: group g is ``order[start[g]:start[g] + count[g]]``
    in ascending id; ``rank[j]`` is centroid j's position in ``order``."""
    order = np.argsort(groups, kind="stable")
    count = np.bincount(groups, minlength=t)
    start = np.cumsum(count) - count
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return order, start, count, rank
