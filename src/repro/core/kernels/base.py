"""Kernel contract and registry.

A *kernel* is one accelerated exact-Lloyd assignment strategy. Kernels
are pure numpy objects: per-partition state lives in a plain dict (so it
pickles through Spark's cached-RDD path), per-iteration shared inputs
arrive in an :class:`~repro.core.ctx.IterCtx` built driver-side.

Contract:

* ``needs`` — which IterCtx fields to precompute (see ``ctx.make_ctx``).
* ``fixed_groups`` — Yinyang-style kernels that freeze centroid groups
  after the first iteration set this; the runner then reuses iteration
  0's grouping for every subsequent ctx.
* ``init_state(X)`` — allocate per-partition state. Must set ``a`` to an
  int64 array of −1 (unassigned).
* ``assign(X, st, ctx, counters)`` — run one assignment step in place.
  When ``ctx.iter_idx == 0`` the kernel performs its initial full
  assignment and bound setup.

Every kernel is exact: after each call, ``st['a']`` must equal plain
Lloyd's assignment for the same centroids (ties aside). The tree kernels
(index, kdindex, search, unik), yinyang and regroup also break exact ties
like Lloyd's ``argmin``, toward the lowest centroid id.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from ..ctx import IterCtx
from ..linalg import full_dists
from ..metrics import Counters


class Kernel:
    name: str = "base"
    needs: frozenset[str] = frozenset()
    fixed_groups: bool = False
    #: True → the runner re-reads every point to refine (classic Lloyd);
    #: False → incremental sum-vector refinement over moved points only.
    traditional_refine: bool = False

    def init_state(self, X: np.ndarray) -> dict:
        return {"a": np.full(X.shape[0], -1, dtype=np.int64)}

    def assign(self, X: np.ndarray, st: dict, ctx: IterCtx, counters: Counters) -> None:
        raise NotImplementedError

    def footprint(self, st: dict) -> int:
        """Bytes of auxiliary state (bounds, indexes) — Figure-10 metric."""
        return sum(
            v.nbytes for k, v in st.items() if isinstance(v, np.ndarray) and k != "a"
        )


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
# Shared helpers


def top2_from_full(D: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(argmin, d1, d2, arg2) per row of a dense distance matrix."""
    k = D.shape[1]
    if k == 1:
        a = np.zeros(D.shape[0], dtype=np.int64)
        d1 = D[:, 0]
        inf = np.full_like(d1, np.inf)
        return a, d1, inf, a.copy()
    part = np.argpartition(D, 1, axis=1)[:, :2]
    vals = np.take_along_axis(D, part, axis=1)
    swap = vals[:, 0] > vals[:, 1]
    part[swap] = part[swap][:, ::-1]
    vals[swap] = vals[swap][:, ::-1]
    return part[:, 0].astype(np.int64), vals[:, 0], vals[:, 1], part[:, 1].astype(np.int64)


def rowwise_min_pairs(
    n_rows: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (min value, argmin col) over sparse (row, col, val) triples.

    Rows with no triples get (+inf, −1).
    """
    best = np.full(n_rows, np.inf)
    arg = np.full(n_rows, -1, dtype=np.int64)
    if len(rows):
        order = np.lexsort((vals, rows))
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[order][1:] != rows[order][:-1]
        sel = order[first]
        best[rows[sel]] = vals[sel]
        arg[rows[sel]] = cols[sel]
    return best, arg


def rowwise_top2_pairs(
    n_rows: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row two smallest values over sparse (row, col, val) triples.

    Returns (d1, c1, d2, c2); rows with < 2 triples get +inf / −1 in the
    missing slots.
    """
    d1 = np.full(n_rows, np.inf)
    c1 = np.full(n_rows, -1, dtype=np.int64)
    d2 = np.full(n_rows, np.inf)
    c2 = np.full(n_rows, -1, dtype=np.int64)
    if len(rows) == 0:
        return d1, c1, d2, c2
    order = np.lexsort((vals, rows))
    r = rows[order]
    first = np.ones(len(r), dtype=bool)
    first[1:] = r[1:] != r[:-1]
    second = np.zeros(len(r), dtype=bool)
    second[1:] = first[:-1] & (r[1:] == r[:-1])
    s1 = order[first]
    s2 = order[second]
    d1[rows[s1]] = vals[s1]
    c1[rows[s1]] = cols[s1]
    d2[rows[s2]] = vals[s2]
    c2[rows[s2]] = cols[s2]
    return d1, c1, d2, c2


def full_assign(
    X: np.ndarray, C: np.ndarray, counters: Counters
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Plain Lloyd assignment grid; returns (a, d1, d2, arg2)."""
    D = full_dists(X, C, counters)
    return top2_from_full(D)
