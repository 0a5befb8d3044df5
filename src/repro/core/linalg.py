"""Vectorized distance primitives, k-means++ init, and SSE.

Kernels must never evaluate distances the algorithm would not: each one
hands over the (point, centroid) pairs its filters ask for, through
``pair_dists`` or ``candidate_dists``, so wall time scales with the
number of *surviving* candidate pairs, mirroring a per-point
implementation's cost profile. A kernel may build those pairs at its own
grain (Yinyang expands each surviving (point, group) segment), and
``pair_dists`` evaluates them in consecutive blocks of
``index.base.BLOCK // d`` pairs, so its (pairs, d) gathers stay near
cache size however many pairs are asked.

``_dist_blocks`` is the one place the dense expanded form
``‖x‖² + ‖c‖² − 2·x·c`` (clamped at 0, then square-rooted) is
evaluated, so every dense distance comes from one formula in one order;
``pair_dists`` is its per-pair form. It walks X in row blocks of
``SCAN_ROWS`` whose product and distances stay in cache. ``scan_dists``
hands each block to a per-row pick and never holds the n×k grid: Lloyd,
the iteration-0 scans of Hamerly, Heap, Annular and Pami20, and the
rescans of Hamerly and Heap use it. ``full_dists`` fills the n×k grid
from the same blocks, for every other dense caller: Elkan's lower-bound
matrix, Drake's sorted rows, Yinyang/Regroup's per-group row minima,
``candidate_dists``' dense path, INDE's and UniK's pivot distances,
Pami20's per-cluster blocks and the driver's centroid matrices
(``ctx``). Search's rest scan also stays on it: with a blocked pick its
iterations ran slower, because its range queries' large temporaries
then start on fresh pages (no freed n×k grid raises glibc's dynamic
mmap threshold).

Gathers. Whole rows are gathered by an integer index array with
``np.take(A, idx, axis=0)``, here and in the kernels and tree builders:
it copies the same bytes as ``A[idx]``, so no result changes, without
fancy indexing's per-row overhead (at d = 2, 1.5–2 ns against 12–21 ns
per row; at d = 57 within ~10%). ``out=`` is not used: taking into a
reused buffer was slower than a fresh ``take`` at d = 2 and at d = 57.
Boolean masks stay boolean indexing (``take`` would read them as rows
0 and 1), and 1-d gathers stay ``a[idx]``, which is as fast.
"""
from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..index.base import blocks
from .metrics import Counters


#: Rows of X per block of a dense scan: a (SCAN_ROWS, k) block of
#: distances and its product stay in cache, where an n×k grid would
#: stream through memory once per temporary.
SCAN_ROWS = 1024


def _dist_blocks(X, C, x2, c2, pick=None):
    """X's Euclidean distances to C, one row block at a time (Goto & van de
    Geijn's rule: keep the product's output block in cache and reuse it).

    The one place the dense expanded form is evaluated: per block,
    ``(x2 + c2) − 2·(X·Cᵀ)``, the clamp at 0 and ``sqrt``, in place. With
    ``pick=None`` the blocks fill and return one n×k array; otherwise the
    list of ``pick(block)`` is returned, and each block is overwritten by
    the next. Up to ``SCAN_ROWS + 1`` rows are one block with no loop or
    reused buffers (INDE's and UniK's node frontiers take this path once
    per step); longer X is walked in blocks of ``SCAN_ROWS`` rows through
    two reused buffers. numpy multiplies a one-row block by GEMV, which
    sums in another order than a taller block's GEMM, so a one-row tail
    joins the block before it.
    """
    n, k = X.shape[0], C.shape[0]
    if x2 is None:
        x2 = np.einsum("ij,ij->i", X, X)
    if c2 is None:
        c2 = np.einsum("ij,ij->i", C, C)

    def block(Xb, x2b, g=None, d=None):
        g = np.matmul(Xb, C.T, out=g)
        d = np.add(x2b[:, None], c2, out=d)
        g *= 2.0
        d -= g
        np.maximum(d, 0.0, out=d)
        return np.sqrt(d, out=d)

    if n <= SCAN_ROWS + 1:
        d = block(X, x2)
        return d if pick is None else [pick(d)]
    G = np.empty((SCAN_ROWS + 1, k))
    D = np.empty((n, k) if pick is None else (SCAN_ROWS + 1, k))
    parts = []
    s = 0
    while s < n:
        e = n if n - s <= SCAN_ROWS + 1 else s + SCAN_ROWS
        d = block(X[s:e], x2[s:e], G[: e - s], D[s:e] if pick is None else D[: e - s])
        if pick is not None:
            parts.append(pick(d))
        s = e
    return D if pick is None else parts


def _charge(counters: Counters | None, n: int, k: int) -> None:
    if counters is not None:
        counters.dist += n * k
        counters.data_access += n * k


def full_dists(
    X: np.ndarray,
    C: np.ndarray,
    counters: Counters | None = None,
    x2: np.ndarray | None = None,
    c2: np.ndarray | None = None,
) -> np.ndarray:
    """All n×k Euclidean distances, for callers that keep whole rows.

    Computed in the same row blocks as :func:`scan_dists`, so both give
    the same bits at any BLAS thread count.
    """
    out = _dist_blocks(X, C, x2, c2)
    _charge(counters, *out.shape)
    return out


def scan_dists(
    X: np.ndarray,
    C: np.ndarray,
    pick: Callable[[np.ndarray], Any],
    counters: Counters | None = None,
    x2: np.ndarray | None = None,
    c2: np.ndarray | None = None,
):
    """``pick`` over the rows of :func:`full_dists`, never holding the n×k grid.

    ``pick`` maps a block of distance rows to per-row arrays, or a tuple
    of them (``kernels.base.argmin``, ``kernels.base.top2``); the block is
    overwritten by the next one, so ``pick`` must not keep it. The
    per-block results are concatenated. Charges n·k distances as
    ``full_dists`` does.
    """
    parts = _dist_blocks(X, C, x2, c2, pick)
    _charge(counters, X.shape[0], C.shape[0])
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def pair_dists(
    X: np.ndarray,
    C: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    counters: Counters | None = None,
    x2: np.ndarray | None = None,
    c2: np.ndarray | None = None,
) -> np.ndarray:
    """Distances for explicit (rows[i], cols[i]) point–centroid pairs.

    ``x2``/``c2`` are optional precomputed squared norms (kernels cache
    the point norms once; centroid norms once per iteration). Pairs are
    evaluated in consecutive blocks (``index.base.blocks``); each pair's
    arithmetic is the same in any block, so the result does not depend on
    the block size.
    """
    out = np.empty(len(rows))
    for b in blocks(len(rows), X.shape[1]):
        xs = np.take(X, rows[b], axis=0)
        cs = np.take(C, cols[b], axis=0)
        x2r = np.einsum("ij,ij->i", xs, xs) if x2 is None else x2[rows[b]]
        c2r = np.einsum("ij,ij->i", cs, cs) if c2 is None else c2[cols[b]]
        d2 = x2r + c2r - 2.0 * np.einsum("ij,ij->i", xs, cs)
        np.maximum(d2, 0.0, out=d2)
        np.sqrt(d2, out=out[b])
    if counters is not None:
        counters.dist += len(rows)
        counters.data_access += len(rows)
    return out


def candidate_dists(
    X: np.ndarray,
    C: np.ndarray,
    r1: np.ndarray,
    rr: np.ndarray,
    cols: np.ndarray,
    counters: Counters | None = None,
    x2: np.ndarray | None = None,
    c2: np.ndarray | None = None,
    dense_threshold: float = 0.35,
) -> np.ndarray:
    """Distances for candidate pairs (r1[rr[i]], cols[i]).

    When the candidate density exceeds ``dense_threshold`` the rows'
    distances come from :func:`full_dists` and the pairs are extracted
    (cheaper in memory traffic than gathering each pair); counters still
    charge only the candidate pairs — the quantity the *algorithm*
    computes.
    """
    if len(rr) == 0:
        return np.empty(0)
    k = C.shape[0]
    if counters is not None:
        counters.dist += len(rr)
        counters.data_access += len(rr)
    if len(rr) > dense_threshold * len(r1) * k:
        x2r = None if x2 is None else x2[r1]
        return full_dists(np.take(X, r1, axis=0), C, None, x2r, c2)[rr, cols]
    return pair_dists(X, C, r1[rr], cols, None, x2=x2, c2=c2)


#: Rows of ``d2`` per block of a k-means++ draw (:func:`_draw`): a draw
#: sums each block, and takes the cumulative sum only of the block its
#: uniform falls in.
DRAW_ROWS = 1024


def _draw(d2: np.ndarray, total: float, u: float) -> int:
    """The index ``rng.choice(len(d2), p=d2 / total)`` returns for its uniform ``u``.

    ``rng.choice`` computes ``cdf = cumsum(p); cdf /= cdf[-1]`` and returns
    ``cdf.searchsorted(u, side="right")``: the number of rows i with
    ``fl(P_i / L) <= u``, where ``P`` is the sequential cumsum of
    ``p = fl(d2 / total)`` and ``L = P[-1]``. That count depends only on
    the ``P_i`` near ``u·L``, so it is located from sums, not from the
    whole cumsum:

    - ``Q``: the sums of ``d2`` over blocks of ``DRAW_ROWS`` rows
      (``np.add.reduceat``), ``/ total``, prefix-summed; ``Lt = Q[-1]``
      stands for L and ``t = fl(u·Lt)`` for ``u·L``.
    - The block ``b`` is the first whose prefix ``Q[b]`` exceeds ``t``;
      inside it ``Pt = Q[b-1] + cumsum(p[block])`` stands for ``P``, and
      the row is the count of ``Pt <= t``, offset by the block's start.

    *Bound.* Every compared quantity is a sum of non-negative terms, so
    the forward error of recursive summation (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., §4.2) applies term by
    term: with unit roundoff ``ε = 2^-53`` and ``γ_K = Kε / (1 − Kε)``,
    each term of a sum carries at most ``K = n + DRAW_ROWS + nb + 2``
    roundings (``nb`` blocks of at most ``DRAW_ROWS`` rows: the block sum,
    ``/ total``, the prefix over blocks, the in-block cumsum, the final
    add; ``P`` itself carries at most ``n - 1``). So, for
    ``T = Σ p_i`` (``≈ 1``), ``|Pt_i − P_i|`` and ``|Lt − L|`` are each
    at most ``2γ_K·T``, and ``|t − u·L|`` at most ``2γ_K·T + ε·Lt``. For
    ``Kε ≤ 1/8``, ``T ≤ Lt / (1 − γ_K)`` gives ``2γ_K·T ≤ (8/3)·Kε·Lt``,
    below ``E = (K + 1)·2^-51·Lt``; the slack left covers the roundings
    of ``t ± 2E`` and of ``fl(P_i / L)``. Underflowed terms add at most
    ``2^-1074`` each, far below ``E``.

    *Certificate.* The row is accepted when the largest ``Pt`` at or
    below ``t`` (or ``Q[b-1]``) is below ``t − 2E`` and the smallest above
    it exceeds ``t + 2E``: then every ``P_i`` counted lies below ``u·L``,
    so ``fl(P_i / L) <= u``, and every other exceeds
    ``u·L·(1 + 2^-52)``, at least the float after ``u``, so
    ``fl(P_i / L) > u`` (both by monotone rounding; the prefixes of
    earlier and later blocks follow, as ``P`` is monotone). Otherwise,
    and on a non-finite ``Lt``, the index comes from ``rng.choice``'s own
    full cumsum (:func:`_choice_index`), so it is ``rng.choice``'s in
    every case.
    """
    n = len(d2)
    starts = np.arange(0, n, DRAW_ROWS)
    Q = np.cumsum(np.add.reduceat(d2, starts) / total)
    Lt = Q[-1]
    E = (n + DRAW_ROWS + len(starts) + 3) * 2.0**-51 * Lt
    t = u * Lt
    b = int(Q.searchsorted(t, side="right"))
    if np.isfinite(Lt) and b < len(starts):
        s = starts[b]
        lo = Q[b - 1] if b else 0.0
        Pt = lo + np.cumsum(d2[s : s + DRAW_ROWS] / total)
        r = int(Pt.searchsorted(t, side="right"))
        below = Pt[r - 1] if r else lo
        if r < len(Pt) and below < t - 2.0 * E and Pt[r] > t + 2.0 * E:
            return int(s) + r
    return _choice_index(d2, total, u)


def _choice_index(d2: np.ndarray, total: float, u: float) -> int:
    """``rng.choice(len(d2), p=d2 / total)``'s own inverse-CDF step for ``u``."""
    cdf = np.cumsum(d2 / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def kmeans_pp_init(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Standard k-means++ seeding (Arthur & Vassilvitskii), deterministic.

    Exact and pruned with Elkan's inter-centroid bound (§4.1): a point
    whose nearest chosen centre ``own`` satisfies
    ``d(c_own, c_j) >= 2·d(x, c_own)`` cannot get closer to the new
    centre ``c_j``, so only the other points' squared distances are
    recomputed. A relative margin of 1e-9 absorbs rounding, and the
    recomputed entries use the unpruned expression, so ``d2`` is
    bit-identical to recomputing all n points. The test compares
    ``cc2·(1 − 1e-9)``, scaled once per step, with ``4·d2``, kept in
    ``d2x4`` and updated at the moved points only: the operands of
    ``cc2[own]·(1 − 1e-9) < 4·d2`` (×4 is exact), so the same comparisons.

    Each draw is :func:`_draw` on ``u = rng.random()``: bit for bit
    ``rng.choice(n, p=d2 / total)`` on the same stream. It sums ``d2``
    over ``nb`` blocks of ``DRAW_ROWS`` rows and takes the cumsum of the
    block ``u`` falls in only. The row is accepted when no approximate
    prefix lies within ``2E`` of ``u·L``, where
    ``E = (n + DRAW_ROWS + nb + 3)·2^-51·L`` bounds the forward error of
    the sequential cumsum and of its last entry ``L`` (derived in
    :func:`_draw`); otherwise the draw falls back to ``rng.choice``'s own
    full cumsum.
    """
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    k = min(k, n)
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    idx = rng.integers(n)
    centers[0] = X[idx]
    diff = X - centers[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    d2x4 = 4.0 * d2
    own = np.zeros(n, dtype=np.int64)
    for j in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise ValueError("k-means++ seeding needs finite input")
        if total <= 0:
            centers[j:] = X[rng.integers(n, size=k - j)]
            break
        centers[j] = X[_draw(d2, total, rng.random())]
        dc = centers[:j] - centers[j]
        cc2 = np.einsum("ij,ij->i", dc, dc)
        cc2 *= 1.0 - 1e-9
        cand = np.flatnonzero(cc2[own] < d2x4)
        diff = np.take(X, cand, axis=0).astype(np.float64, copy=False)
        diff -= centers[j]
        nd2 = np.einsum("ij,ij->i", diff, diff)
        closer = nd2 < d2[cand]
        moved, nd2 = cand[closer], nd2[closer]
        d2[moved] = nd2
        d2x4[moved] = 4.0 * nd2
        own[moved] = j
    return centers


def random_init(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Plain random seeding (used by the Figure-16-style initialization test)."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(X.shape[0], size=min(k, X.shape[0]), replace=False)
    return X[idx].astype(np.float64, copy=True)


def sse(X: np.ndarray, C: np.ndarray, assign: np.ndarray) -> float:
    """Sum of squared errors of an assignment (Equation 1)."""
    diff = np.take(C, assign, axis=0).astype(np.result_type(C, X), copy=False)
    diff -= X  # fl(c − x) = −fl(x − c): the squares are those of X − C[assign]
    return float(np.einsum("ij,ij->", diff, diff))
