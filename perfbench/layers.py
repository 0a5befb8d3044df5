"""Per-layer spans, recorded from outside the program at calls into its layers.

Nothing here changes what the program computes. ``Tracer.installed``
swaps, for the duration of one pass, the names ``repro.core.runner``
imports ``make_ctx``, ``kmeans_pp_init`` and ``sse`` under, and
``SparkContext.broadcast``, for timing wrappers around the originals.
``TimedKernel`` delegates to a real kernel and times ``init_state`` and
``assign``; it is pickled into Spark tasks with the kernel, so it writes
each record as one JSON line to a per-process file under ``span_dir``
that the driver reads back after the pass.
"""
from __future__ import annotations

import contextlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field, fields

import numpy as np
from pyspark import TaskContext

from repro.core import runner as runner_mod
from repro.core.kernels.base import Kernel
from repro.core.metrics import Counters

#: Exact event counters a kernel increments inside ``assign``.
COUNTS = ("dist", "node_access", "bound_access", "bound_update", "data_access")


def _partition_id() -> int:
    tc = TaskContext.get()
    return tc.partitionId() if tc is not None else 0


class TimedKernel(Kernel):
    """Delegating kernel that records wall, CPU and counter deltas per call."""

    def __init__(self, inner: Kernel, method: str, span_dir: str):
        self.inner = inner
        self.name = inner.name
        self.needs = inner.needs
        self.fixed_groups = inner.fixed_groups
        self.traditional_refine = inner.traditional_refine
        self.method = method
        self.span_dir = span_dir

    def _emit(self, rec: dict) -> None:
        rec.update(method=self.method, part=_partition_id())
        path = os.path.join(self.span_dir, f"kernel-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            f.write(json.dumps(rec) + "\n")

    def init_state(self, X: np.ndarray) -> dict:
        c0, t0 = time.process_time(), time.perf_counter()
        st = self.inner.init_state(X)
        t1, c1 = time.perf_counter(), time.process_time()
        self._emit({"op": "init", "iter": -1, "wall": t1 - t0, "cpu": c1 - c0})
        return st

    def assign(self, X: np.ndarray, st: dict, ctx, counters: Counters) -> None:
        before = [getattr(counters, c) for c in COUNTS]
        c0, t0 = time.process_time(), time.perf_counter()
        self.inner.assign(X, st, ctx, counters)
        t1, c1 = time.perf_counter(), time.process_time()
        rec = {"op": "assign", "iter": ctx.iter_idx, "wall": t1 - t0, "cpu": c1 - c0}
        rec.update({c: getattr(counters, c) - b for c, b in zip(COUNTS, before)})
        if ctx.iter_idx == 0:
            rec["state_bytes"] = self.inner.footprint(st) + st["a"].nbytes
        self._emit(rec)

    def footprint(self, st: dict) -> int:
        return self.inner.footprint(st)


@dataclass
class Span:
    layer: str
    method: str
    iter: int          # -1 outside the iteration loop
    wall: float
    nbytes: int = 0


@dataclass
class Tracer:
    """Driver-side spans of one traced pass, plus the kernel records."""

    span_dir: str
    sc: object | None = None            # SparkContext on Spark workloads
    tag: str = ""                       # prefix of this pass's Spark job labels
    spans: list[Span] = field(default_factory=list)
    ctxs: list = field(default_factory=list)   # (method, IterCtx), sized after the pass
    method: str = ""
    iter: int = -1

    def kernel(self, inner: Kernel) -> TimedKernel:
        return TimedKernel(inner, self.method, self.span_dir)

    @contextlib.contextmanager
    def method_run(self, method: str):
        """Label everything recorded while ``method`` runs."""
        self.method, self.iter = method, -1
        self._describe("setup")
        try:
            yield
        finally:
            self._describe(None)

    def _describe(self, what) -> None:
        # Spark copies the job description into each job's properties in
        # its event log, which is how jobs are matched to iterations.
        if self.sc is not None:
            self.sc.setJobDescription(
                None if what is None else f"{self.tag}/{self.method}/{what}"
            )

    def _timed(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.spans.append(Span(layer, self.method, self.iter, time.perf_counter() - t0))
            return out
        return wrapper

    def _make_ctx(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            ctx = fn(*args, **kwargs)
            wall = time.perf_counter() - t0
            self.iter = ctx.iter_idx
            self.spans.append(Span("ctx", self.method, self.iter, wall))
            self.ctxs.append((self.method, ctx))
            self._describe(self.iter)
            return ctx
        return wrapper

    def _broadcast(self, fn):
        def wrapper(sc, value, *args, **kwargs):
            t0 = time.perf_counter()
            bc = fn(sc, value, *args, **kwargs)
            wall = time.perf_counter() - t0
            self.spans.append(
                Span("broadcast", self.method, self.iter, wall, os.path.getsize(bc._path))
            )
            return bc
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap the timing wrappers in for the duration of the block."""
        patches = [
            (runner_mod, "make_ctx", self._make_ctx(runner_mod.make_ctx)),
            (runner_mod, "kmeans_pp_init", self._timed("seed", runner_mod.kmeans_pp_init)),
            (runner_mod, "sse", self._timed("sse", runner_mod.sse)),
        ]
        if self.sc is not None:
            cls = type(self.sc)
            patches.append((cls, "broadcast", self._broadcast(cls.broadcast)))
        saved = [(obj, name, getattr(obj, name)) for obj, name, _ in patches]
        try:
            for obj, name, fn in patches:
                setattr(obj, name, fn)
            yield self
        finally:
            for obj, name, fn in saved:
                setattr(obj, name, fn)

    def ctx_bytes(self) -> list[int]:
        return [len(pickle.dumps(c, protocol=pickle.HIGHEST_PROTOCOL)) for _, c in self.ctxs]

    def kernel_records(self) -> list[dict]:
        """Read back, then delete, what every process's ``TimedKernel`` wrote."""
        recs = []
        for name in sorted(os.listdir(self.span_dir)):
            if name.startswith("kernel-"):
                path = os.path.join(self.span_dir, name)
                with open(path) as f:
                    recs.extend(json.loads(line) for line in f)
                os.unlink(path)
        return recs


def counts_of(c: Counters) -> dict:
    """The exact counters of a run, for the traced-vs-untraced comparison."""
    return {f.name: getattr(c, f.name) for f in fields(c) if isinstance(getattr(c, f.name), int)}
