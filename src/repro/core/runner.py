"""Drive k-means iterations over a kernel: locally or on Spark.

One driver loop (:func:`_drive`) serves both runners and follows the
paper's refinement protocol (§5.1.2):

1. Build the per-iteration :class:`IterCtx` on the driver (centroid
   drifts, cc-matrix, groups, …).
2. Each block of points runs ``kernel.assign``, then updates its
   per-cluster sum vectors and counts with only the points that changed
   cluster (no second pass over the data), and returns a copy of its
   dense ``(k, d+1)`` sum+count array with its counters and its points'
   assignment.
3. The driver sums the partials in block order and divides sum vectors
   by counts to refine the centroids. The last iteration's assignments,
   concatenated in block order, are the run's final assignment.

``LocalRunner`` runs one in-process block. ``SparkRunner`` keeps one
block per partition in a cached RDD; each iteration is one job of one
stage (no shuffle) whose tasks run the block step as their only Python
evaluation and return its results through a partition-keyed accumulator,
so a run makes one job to build the blocks plus one per iteration.
"""
from __future__ import annotations

import os
import sys
import time
import zipimport
from dataclasses import dataclass, field

import numpy as np

from .ctx import IterCtx, make_ctx
from .kernels.base import Kernel
from .linalg import kmeans_pp_init, random_init, sse
from .metrics import Counters


@dataclass
class RunResult:
    centers: np.ndarray
    counters: Counters
    iters_run: int
    assign_times: list[float] = field(default_factory=list)
    refine_times: list[float] = field(default_factory=list)
    iter_times: list[float] = field(default_factory=list)
    assign: np.ndarray | None = None   # final assignment
    sse: float = float("nan")
    seed_time: float = 0.0             # wall time of seeding (0 when centers0 is given)

    @property
    def total_time(self) -> float:
        return float(sum(self.iter_times))


def skip_unchanged_zip_rereads() -> None:
    """Make ``zipimporter.invalidate_caches`` skip archives that did not change.

    A PySpark worker calls ``importlib.invalidate_caches()`` before every
    task, and before Python 3.13 each ``zipimporter`` then re-reads its
    archive's whole central directory (pyspark.zip, the py4j zip, the
    spark-core jar): about 250 ms per task on a 4-core VM, more than most
    iterations' kernels. The replacement re-reads only when the archive's
    ``(st_mtime_ns, st_size)`` differs from the one at that importer's last
    read, or cannot be read, so a changed archive is still re-read. An
    importer's first call after the swap always reads. Idempotent; the
    functions ``SparkRunner`` ships call it first thing.
    """
    if sys.version_info >= (3, 13):
        return
    stock = zipimport.zipimporter.invalidate_caches
    if getattr(stock, "skips_unchanged", False):
        return

    def invalidate_caches(self):
        try:
            st = os.stat(self.archive)
            stamp = (st.st_mtime_ns, st.st_size)
        except OSError:
            stamp = None
        if stamp is None or stamp != getattr(self, "_read_stamp", None):
            stock(self)
            self._read_stamp = stamp

    invalidate_caches.skips_unchanged = True
    zipimport.zipimporter.invalidate_caches = invalidate_caches


def _init_centers(X: np.ndarray, k: int, seed: int, init: str) -> np.ndarray:
    if init == "kmeans++":
        return kmeans_pp_init(X, k, seed)
    if init == "random":
        return random_init(X, k, seed)
    raise ValueError(f"unknown init {init!r}")


def _refine_traditional(
    X: np.ndarray,
    a_new: np.ndarray,
    sv: np.ndarray,
    cnt: np.ndarray,
    counters: Counters,
) -> None:
    """Classic refinement: re-read every point and rebuild the sums.

    Each column is one ``bincount``, which adds the points in order into
    bins that start at 0, as ``np.add.at`` does: the same bits.
    """
    k = len(cnt)
    for j in range(X.shape[1]):
        sv[:, j] = np.bincount(a_new, weights=X[:, j], minlength=k)
    cnt[:] = np.bincount(a_new, minlength=k)
    counters.data_access += len(a_new)


def _refine_increment(
    X: np.ndarray,
    a_prev: np.ndarray,
    a_new: np.ndarray,
    sv: np.ndarray,
    cnt: np.ndarray,
    counters: Counters,
) -> None:
    """Update per-cluster sum vectors with only the moved points."""
    moved = np.where(a_prev != a_new)[0]
    if len(moved) == 0:
        return
    pts = np.take(X, moved, axis=0)
    old = a_prev[moved]
    valid = old >= 0
    if valid.any():
        np.subtract.at(sv, old[valid], pts[valid])
        np.subtract.at(cnt, old[valid], 1)
    np.add.at(sv, a_new[moved], pts)
    np.add.at(cnt, a_new[moved], 1)
    counters.data_access += len(moved)


def _init_block(X: np.ndarray, kernel: Kernel, k: int) -> dict:
    """A block's points, kernel state and (k, d+1) sum+count array."""
    return {"X": X, "st": kernel.init_state(X), "acc": np.zeros((k, X.shape[1] + 1))}


def _block_step(
    block: dict, kernel: Kernel, ctx: IterCtx
) -> tuple[np.ndarray, Counters, np.ndarray]:
    """One block's assignment + refinement: its (k, d+1) partial, counters
    and assignment."""
    X, st, acc = block["X"], block["st"], block["acc"]
    c = Counters()
    a_prev = st["a"].copy()
    t0 = time.perf_counter()
    kernel.assign(X, st, ctx, c)
    c.assign_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    # Before the first assignment every point moves and the sums start at
    # 0, so the incremental update is the traditional one, bit for bit.
    if kernel.traditional_refine or (a_prev < 0).all():
        _refine_traditional(X, st["a"], acc[:, :-1], acc[:, -1], c)
    else:
        _refine_increment(X, a_prev, st["a"], acc[:, :-1], acc[:, -1], c)
    c.refine_time = time.perf_counter() - t0
    c.footprint_bytes = kernel.footprint(st)
    return acc.copy(), c, st["a"]


def _drive(X, k, kernel, n_iters, seed, init, centers0, start) -> RunResult:
    """The iteration loop both runners share.

    ``start(X, k)`` sets up the blocks and returns ``step``: ``step(ctx)``
    runs :func:`_block_step` on every block and returns its
    ``(partial, Counters, assignment)`` triples in block order.
    """
    if n_iters < 1:
        raise ValueError(f"n_iters must be at least 1, got {n_iters}")
    X = np.ascontiguousarray(X, dtype=np.float64)
    seed_time = 0.0
    if centers0 is not None:
        centers = centers0.astype(np.float64).copy()
    else:
        t0 = time.perf_counter()
        centers = _init_centers(X, k, seed, init)
        seed_time = time.perf_counter() - t0
    step = start(X, centers.shape[0])
    groups = None
    prev = centers.copy()
    res = RunResult(centers=centers, counters=Counters(), iters_run=0, seed_time=seed_time)
    for t in range(n_iters):
        t_iter = time.perf_counter()
        ctx = make_ctx(centers, prev, t, kernel.needs, groups=groups)
        if kernel.fixed_groups:
            groups = ctx.groups
        outs = step(ctx)
        t0 = time.perf_counter()  # driver-side combine
        acc = sum(partial for partial, _, _ in outs)
        cnt = acc[:, -1]
        nonempty = cnt > 0
        new_centers = centers.copy()
        new_centers[nonempty] = acc[nonempty, :-1] / cnt[nonempty, None]
        block_counters = [c for _, c, _ in outs]
        res.counters = sum(block_counters, res.counters + Counters(dist=ctx.driver_dist))
        # Blocks run in parallel: a phase takes as long as its slowest block.
        res.assign_times.append(max(c.assign_time for c in block_counters))
        res.refine_times.append(
            max(c.refine_time for c in block_counters) + time.perf_counter() - t0
        )
        prev, centers = centers, new_centers
        res.iter_times.append(time.perf_counter() - t_iter)
        res.iters_run = t + 1
        if t > 0 and np.array_equal(prev, centers):
            break
    res.counters.assign_time = sum(res.assign_times)
    res.counters.refine_time = sum(res.refine_times)
    res.centers = centers
    res.assign = np.concatenate([a for _, _, a in outs])
    res.sse = sse(X, centers, res.assign)
    return res


class LocalRunner:
    """Single-process reference runner (used by tests and the tuner)."""

    def run(
        self,
        X: np.ndarray,
        k: int,
        kernel: Kernel,
        n_iters: int = 10,
        seed: int = 0,
        init: str = "kmeans++",
        centers0: np.ndarray | None = None,
    ) -> RunResult:
        def start(X, k):
            block = _init_block(X, kernel, k)
            return lambda ctx: [_block_step(block, kernel, ctx)]

        return _drive(X, k, kernel, n_iters, seed, init, centers0, start)


class _ByPartition:
    """Merges ``{partition: result}`` dicts; a re-sent task update overwrites its key."""

    def zero(self, value: dict) -> dict:
        return {}

    def addInPlace(self, a: dict, b: dict) -> dict:
        return {**a, **b}


class SparkRunner:
    """Distributed runner: one cached block per partition, one stage per iteration."""

    def __init__(self, spark, n_partitions: int = 8):
        self.spark = spark
        self.n_partitions = n_partitions

    def run(
        self,
        X: np.ndarray,
        k: int,
        kernel: Kernel,
        n_iters: int = 10,
        seed: int = 0,
        init: str = "kmeans++",
        centers0: np.ndarray | None = None,
    ) -> RunResult:
        sc = self.spark.sparkContext
        p = min(self.n_partitions, len(X))  # kernels need non-empty blocks
        kernel_bc = sc.broadcast(kernel)
        bcs = [kernel_bc]
        # One accumulator per run: PySpark never drops one from its registry.
        parts = sc.accumulator({}, _ByPartition())
        blocks = out = None

        def start(X, k):
            nonlocal blocks
            def init(b):
                skip_unchanged_zip_rereads()
                return _init_block(b, kernel, k)

            blocks = sc.parallelize(np.array_split(X, p), p).map(init).cache()
            blocks._jrdd.count()  # materialize the initial blocks; see step
            return step

        def step(ctx):
            nonlocal blocks, out
            ctx_bc = sc.broadcast(ctx)
            bcs.append(ctx_bc)
            def step_partition(i, it):
                skip_unchanged_zip_rereads()
                for b in it:
                    parts.add({i: _block_step(b, kernel_bc.value, ctx_bc.value)})
                    yield b
            out = blocks.mapPartitionsWithIndex(step_partition).cache()
            # Truncate lineage so closure size stays O(1) in the iteration count.
            out.localCheckpoint()
            # The iteration's one job (one stage, no shuffle). A JVM-side count
            # keeps ``step_partition`` the only Python evaluation per task;
            # every public action (count, foreach, collect of a map) adds one.
            out._jrdd.count()
            blocks.unpersist()
            blocks = out
            # unpersist, not destroy: the cached ``out``'s function references it.
            ctx_bc.unpersist()
            got, parts.value = parts.value, {}
            if sorted(got) != list(range(p)):
                raise RuntimeError(f"partials came from partitions {sorted(got)}, not 0..{p - 1}")
            return [got[i] for i in range(p)]

        try:
            return _drive(X, k, kernel, n_iters, seed, init, centers0, start)
        finally:
            for rdd in (blocks, out):  # out is not blocks only if a step raised
                if rdd is not None:
                    rdd.unpersist()
            parts.value = {}
            for bc in bcs:
                bc.destroy()
