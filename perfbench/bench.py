"""Workloads, passes, exactness gate and metric computation.

A *pass* runs every method in ``METHODS`` once through the public runner
API (k-means++ seeding, ``N_ITERS`` iterations, §7.1) on its own draw of
the workload's data, and checks each result against an untimed plain-Lloyd
``LocalRunner`` reference for the same inputs. The end-to-end metrics are
medians over the passes of a run; the per-layer metrics come from traced
passes, each paired with an untraced pass of the same inputs.
"""
from __future__ import annotations

import contextlib
import os
import statistics
import subprocess
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import layers
import sparkenv
import speed
from repro.core.kernels import make_kernel
from repro.core.linalg import kmeans_pp_init
from repro.core.metrics import Counters
from repro.core.runner import LocalRunner, RunResult, SparkRunner
from repro.data.datasets import SPECS
from repro.synth_data import gaussian_mixture

METHODS = ("lloyd", "hame", "yinyang", "index", "unik")
K = 100
N_ITERS = 10
EXACT_UNITS = ("count", "bytes", "fraction")   # per-layer units that are not timings
TIME_UNITS = ("s", "ms")   # metrics given in reference seconds (speed.factor)
PROBES = 3                 # speed probes before each method run of a local pass


@dataclass(frozen=True)
class Workload:
    spec: str     # DatasetSpec whose shape parameters the data takes
    scale: int    # n = spec.n × scale
    spark: bool   # SparkRunner with sparkenv.P partitions, else LocalRunner


#: Why each workload was chosen: ``BENCHMARK.json`` and ``README.md``.
WORKLOADS = {
    "spark-bigcross-k100": Workload("BigCross", 1, True),
    "local-nyc-k100": Workload("NYC", 2, False),
}


def make_data(w: Workload, seed: int) -> np.ndarray:
    """The workload's stand-in, scaled, with a mixture drawn from ``seed``."""
    s = SPECS[w.spec]
    return gaussian_mixture(
        n=s.n * w.scale, d=s.d, n_centers=s.n_centers, cluster_std=s.cluster_std,
        uniform_frac=s.uniform_frac, seed=s.seed * 1_000_003 + seed,
    )


def pass_inputs(w: Workload, seed: int, i: int) -> tuple[np.ndarray, int, RunResult]:
    """Data, k-means++ seed and untimed Lloyd reference of pass ``i`` of a run.

    Each pass draws its own mixture and seeding, so a run's medians
    average over several inputs rather than resting on one draw.
    """
    sub = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
    X = make_data(w, sub)
    ref = LocalRunner().run(X, K, make_kernel("lloyd"), n_iters=N_ITERS,
                            centers0=kmeans_pp_init(X, K, sub))
    return X, sub, ref


# --------------------------------------------------------------------------
# Memory


def python_pids(root: int) -> list[int]:
    """``root`` and every Python process below it.

    The Spark JVM sits between the driver and the PySpark workers; it is
    walked through but not listed, because its heap is flag-sized.
    """
    children: dict[int, list[int]] = defaultdict(list)
    names: dict[int, str] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        close = stat.rindex(")")
        names[int(entry)] = stat[stat.index("(") + 1 : close]
        children[int(stat[close + 2 :].split()[1])].append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        todo.extend(children[pid])
        if names.get(pid, "").startswith("python"):
            out.append(pid)
    return out


def _peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class PeakRss:
    """Summed peak RSS of the driver and its Python descendants over a window.

    The kernel keeps each process's high-water mark (``VmHWM``), so the
    window needs no sampling: ``start`` resets the marks and ``stop_mb``
    reads them once. Spark's Python workers are reused, so they live
    through the window.
    """

    def __init__(self):
        self.seen: set[int] = set()   # every Python process read

    def _pids(self) -> list[int]:
        pids = python_pids(os.getpid())
        self.seen.update(pids)
        return pids

    def start(self) -> None:
        for pid in self._pids():
            try:  # "5" resets the process's VmHWM to its current RSS
                with open(f"/proc/{pid}/clear_refs", "w") as f:
                    f.write("5")
            except OSError:  # the process ended between listing and writing
                pass

    def stop_mb(self) -> float:
        kb = 0
        for pid in self._pids():
            try:
                kb += _peak_rss_kb(pid)
            except OSError:
                pass
        return kb / 1024


# --------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    walls: dict[str, float] = field(default_factory=dict)
    results: dict[str, RunResult] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    rss_mb: float = 0.0
    probes: list[dict] = field(default_factory=list)   # speed.probe() before each method


def mismatch(res: RunResult, ref: RunResult) -> str:
    """How ``res`` differs from the Lloyd reference; empty when it does not."""
    bad = []
    if res.iters_run != ref.iters_run:
        bad.append(f"{res.iters_run} iterations, Lloyd ran {ref.iters_run}")
    if res.assign is None or res.assign.shape != ref.assign.shape:
        bad.append("no final assignment of the right shape")
    elif (res.assign != ref.assign).any():
        bad.append(f"{int((res.assign != ref.assign).sum())} final assignments differ")
    if res.centers.shape != ref.centers.shape or not np.allclose(res.centers, ref.centers):
        bad.append("centers not allclose to Lloyd's")
    return "; ".join(bad)


def run_pass(runner, X, seed: int, ref: RunResult, rss: PeakRss, probes: int,
             tracer: layers.Tracer | None = None) -> Pass:
    p = Pass()
    rss.start()
    for m in METHODS:
        p.probes += [speed.probe() for _ in range(probes)]
        with tracer.method_run(m) if tracer else contextlib.nullcontext():
            kernel = tracer.kernel(make_kernel(m)) if tracer else make_kernel(m)
            t0 = time.perf_counter()
            try:
                res = runner.run(X, K, kernel, n_iters=N_ITERS, seed=seed)
            except Exception:
                traceback.print_exc()
                p.failures.append(f"{m} pass_seed={seed}: raised")
                continue
            p.walls[m] = time.perf_counter() - t0
        p.results[m] = res
        if diff := mismatch(res, ref):
            p.failures.append(f"{m} pass_seed={seed}: {diff}")
    p.rss_mb = rss.stop_mb()
    return p


def end_to_end(p: Pass) -> dict[str, float]:
    iters = [t for r in p.results.values() for t in r.iter_times]
    run_s = sum(p.walls.values())
    out = {"run_s": run_s, "setup_s": run_s - sum(iters)}
    for m in METHODS:
        out[f"iters10_s.{m}"] = sum(p.results[m].iter_times) if m in p.results else 0.0
    for q in (50, 80):  # 0 when every method raised
        out[f"iter_ms_p{q}"] = float(np.percentile(iters, q)) * 1e3 if iters else 0.0
    out["py_rss_mb"] = p.rss_mb
    return out


# --------------------------------------------------------------------------
# Per-layer metrics of one traced pass


def iteration_split(p: Pass, tracer: layers.Tracer, recs: list[dict]) -> list[dict]:
    """Each iteration's wall split into ctx, broadcast, max-partition assign
    and the residual (the driver's own work; on Spark also scheduling and
    serialization)."""
    span = defaultdict(float)
    for s in tracer.spans:
        span[s.layer, s.method, s.iter] += s.wall
    assign = defaultdict(float)
    for r in recs:
        if r["op"] == "assign":
            key = (r["method"], r["iter"])
            assign[key] = max(assign[key], r["wall"])
    rows = []
    for m, res in p.results.items():
        for t, wall in enumerate(res.iter_times):
            row = {"method": m, "iter": t, "wall": wall, "ctx": span["ctx", m, t],
                   "broadcast": span["broadcast", m, t], "assign": assign[m, t]}
            row["residual"] = wall - row["ctx"] - row["broadcast"] - row["assign"]
            rows.append(row)
    return rows


def _method_layer_names(m: str) -> list[str]:
    kinds = ("init_ms", "assign_ms", "assign_cpu_ms", "skew", *layers.COUNTS, "iters",
             "pruned_frac", "state_bytes")
    return [f"kernels.{k}.{m}" for k in kinds]


def layer_metrics(n: int, p: Pass, tracer: layers.Tracer, recs: list[dict],
                  rows: list[dict], spark: dict | None) -> dict[str, float]:
    v: dict[str, float] = {
        "linalg.seed_ms": 1e3 * sum(s.wall for s in tracer.spans if s.layer == "seed"),
        "linalg.sse_ms": 1e3 * sum(s.wall for s in tracer.spans if s.layer == "sse"),
    }
    for m in METHODS:
        by_iter = defaultdict(list)
        for r in recs:
            if r["method"] == m and r["op"] == "assign":
                by_iter[r["iter"]].append(r)
        if m not in p.results or not by_iter:
            # The method raised; its failure is reported, its layers read 0.
            v.update({name: 0.0 for name in _method_layer_names(m)})
            continue
        walls = [[r["wall"] for r in rs] for rs in by_iter.values()]
        max_sum = sum(max(w) for w in walls)
        v[f"kernels.init_ms.{m}"] = 1e3 * max(
            (r["wall"] for r in recs if r["method"] == m and r["op"] == "init"), default=0.0)
        v[f"kernels.assign_ms.{m}"] = 1e3 * max_sum
        v[f"kernels.assign_cpu_ms.{m}"] = 1e3 * sum(r["cpu"] for rs in by_iter.values() for r in rs)
        v[f"kernels.skew.{m}"] = max_sum / sum(sum(w) / len(w) for w in walls)
        counters = Counters()
        for c in layers.COUNTS:
            setattr(counters, c, sum(r[c] for rs in by_iter.values() for r in rs))
            v[f"kernels.{c}.{m}"] = getattr(counters, c)
        v[f"kernels.iters.{m}"] = len(by_iter)
        v[f"kernels.pruned_frac.{m}"] = counters.pruned_fraction(n, K, len(by_iter))
        v[f"kernels.state_bytes.{m}"] = sum(r["state_bytes"] for r in by_iter[0])
    v["ctx.build_ms"] = 1e3 * sum(r["ctx"] for r in rows)
    v["ctx.bytes"] = _mean(tracer.ctx_bytes())
    if spark is None:
        v["runner.driver_ms"] = 1e3 * sum(r["residual"] for r in rows)
        return v
    v.update({f"spark.{k}": x for k, x in spark.items()})
    v["spark.broadcast_ms"] = 1e3 * _mean([r["broadcast"] for r in rows])
    v["spark.broadcast_bytes"] = _mean(
        [sp.nbytes for sp in tracer.spans if sp.layer == "broadcast" and sp.iter >= 0]
    )
    v["spark.overhead_ms"] = 1e3 * _mean([r["residual"] for r in rows])
    return v


def self_checks(untraced: Pass, traced: Pass, tracer: layers.Tracer, recs: list[dict],
                rows: list[dict]) -> list[str]:
    """Problems with the trace itself; an empty list when it is sound."""
    problems = [
        f"{r['method']} iteration {r['iter']}: spans exceed the wall by {-r['residual'] * 1e3:.3f} ms"
        for r in rows if r["residual"] < 0
    ]
    driver_dist = defaultdict(int)
    for m, ctx in tracer.ctxs:
        driver_dist[m] += ctx.driver_dist
    for m, res in traced.results.items():
        if m in untraced.results:
            a, b = layers.counts_of(untraced.results[m].counters), layers.counts_of(res.counters)
            if a != b:
                problems.append(f"{m}: traced counters {b} != untraced {a}")
        seen = {c: sum(r[c] for r in recs if r["method"] == m and r["op"] == "assign")
                for c in ("dist", "node_access", "bound_access", "bound_update")}
        seen["dist"] += driver_dist[m]
        want = {c: getattr(res.counters, c) for c in seen}
        if seen != want:
            problems.append(f"{m}: kernel records {seen} != run counters {want}")
    return problems


# --------------------------------------------------------------------------


def environment(spark) -> dict:
    import pyspark

    sha = "unknown"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if os.path.isdir(os.path.join(root, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        sha = out.stdout.strip() or sha
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "git": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pyspark": pyspark.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if spark is not None:
        env["spark"] = f"{spark.sparkContext.master} x {sparkenv.P} partitions"
    return env


def _mean(xs: list[float]) -> float:
    """Mean, or 0 when every method raised and nothing was recorded."""
    return statistics.fmean(xs) if xs else 0.0


def _median(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: str,
            spec: dict) -> dict:
    w = WORKLOADS[workload]
    X, sub, ref = pass_inputs(w, seed, 0)
    n = X.shape[0]
    span_dir = os.path.join(out_dir, "spans")
    os.makedirs(span_dir)
    spark = sparkenv.start(out_dir, event_log=trace) if w.spark else None
    pairs = []
    rss = PeakRss()
    # The probe tracks the one core a local run computes on; a Spark
    # iteration is mostly JVM scheduling, which it does not track.
    probes = 0 if w.spark else PROBES
    try:
        sc = spark.sparkContext if spark else None
        runner = SparkRunner(spark, sparkenv.P) if spark else LocalRunner()
        empty_ms = 0.0
        if spark:
            # A fresh session runs its first jobs slowly (JIT, worker start,
            # imports); a short untimed run takes that out of the passes.
            runner.run(X, K, make_kernel("lloyd"), n_iters=2, seed=sub)
            empty_ms = sparkenv.empty_job_ms(sc)
        print(f"# perfbench {workload} seed={seed} trace={int(trace)} n={n} d={X.shape[1]} "
              f"k={K} iters={N_ITERS} methods={','.join(METHODS)}")
        print(f"# env {environment(spark)}", flush=True)
        t0 = last = time.perf_counter()
        # Another pass only if it should end within ``seconds``, so a
        # run measures for at most ``seconds`` or one pass.
        while not pairs or 2 * time.perf_counter() - last - t0 <= seconds:
            last = time.perf_counter()
            if pairs:
                X, sub, ref = pass_inputs(w, seed, len(pairs))
            plain = run_pass(runner, X, sub, ref, rss, probes)
            traced = tracer = None
            if trace:
                tracer = layers.Tracer(span_dir, sc, tag=str(len(pairs)))
                with tracer.installed():
                    traced = run_pass(runner, X, sub, ref, rss, probes, tracer)
            pairs.append((plain, traced, tracer, tracer.kernel_records() if tracer else []))
    finally:
        if spark:
            sparkenv.stop(spark)
            sparkenv.wait_exited(rss.seen - {os.getpid()})

    passes = [p for pair in pairs for p in pair[:2] if p is not None]
    failures = [f for p in passes for f in p.failures]
    units = {m["name"]: m["unit"] for sec in ("end_to_end", "per_layer") for m in spec[sec]}

    def reference(v: dict[str, float], p: Pass) -> dict[str, float]:
        """``v`` with its times in reference seconds, at pass ``p``'s speed
        (unchanged on Spark, which does not probe)."""
        f = speed.factor(p.probes) if p.probes else 1.0
        return {k: x * f if units.get(k) in TIME_UNITS else x for k, x in v.items()}

    for i, (p, *_) in enumerate(pairs):
        probed = (f"speed factor {speed.factor(p.probes):.4f}, median probe "
                  + ", ".join(f"{k}={v * 1e3:.4f}" for k, v in speed.medians(p.probes).items())
                  + " ms; ") if p.probes else ""
        print(f"pass {i}: {probed}raw "
              + ", ".join(f"{k}={v:.6g}" for k, v in end_to_end(p).items()))
    e2e = _median([reference(end_to_end(p), p) for p, *_ in pairs])
    problems: list[str] = []
    if trace:
        events = sparkenv.read_event_log(out_dir) if spark else []
        per_pass = []
        for plain, traced, tracer, recs in pairs:
            rows = iteration_split(traced, tracer, recs)
            s = None
            if spark:
                labels = [f"{tracer.tag}/{m}/{t}" for m, r in traced.results.items()
                          for t in range(r.iters_run - 1)]
                s = sparkenv.per_iteration(events, labels)
                s["empty_job_ms"] = empty_ms
            v = layer_metrics(n, traced, tracer, recs, rows, s)
            v["trace.run_s_ratio"] = sum(traced.walls.values()) / max(sum(plain.walls.values()), 1e-9)
            per_pass.append(reference(v, traced))
            problems += self_checks(plain, traced, tracer, recs, rows)
        # A layer that does not run on this workload reads 0.
        absent = "runner." if spark else "spark."
        metrics = {m["name"]: 0.0 for m in spec["per_layer"] if m["name"].startswith(absent)}
        metrics.update(_median(per_pass))
        # Counts and sizes depend only on the inputs: take them from the
        # first pass, whose inputs depend only on --seed, so that they
        # repeat exactly however many passes a run makes.
        exact = {m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS}
        metrics.update({k: v for k, v in per_pass[0].items() if k in exact})
        _print_split(rows, spark is not None)
    else:
        metrics = e2e

    section = "per_layer" if trace else "end_to_end"
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[section]}
    if trace:
        print(f"untraced end-to-end (median of {len(pairs)} pass(es)): "
              + ", ".join(f"{k}={v:.6g}" for k, v in e2e.items()))
    _print_metrics(out, len(pairs))
    attempted = len(passes) * len(METHODS)
    print(f"failed_frac {len(failures) / attempted:.4g} ({len(failures)}/{attempted} method runs)")
    for f in failures:
        print(f"MISMATCH workload={workload} seed={seed} {f}")
    for pr in problems:
        print(f"SELF-CHECK FAILED {pr}")
    return {"correct": not failures and not problems, "attempted": attempted,
            "failed": len(failures), "metrics": out}


def _print_metrics(out: dict, n_pairs: int) -> None:
    print(f"{'metric':32} {'value':>14}  unit   (median of {n_pairs} pass(es); "
          f"iter_ms_* pool {len(METHODS) * N_ITERS} iterations per pass)")
    for name, m in out.items():
        print(f"{name:32} {m['value']:14.6g}  {m['unit']}")


def _print_split(rows: list[dict], spark: bool) -> None:
    last = "spark.overhead" if spark else "driver"
    print(f"per-iteration split, ms (last traced pass): method iter wall = ctx + broadcast "
          f"+ max-partition assign + {last}")
    for r in rows:
        print(f"  {r['method']:8} {r['iter']:2d} {r['wall'] * 1e3:9.2f} = {r['ctx'] * 1e3:7.2f} "
              f"+ {r['broadcast'] * 1e3:7.2f} + {r['assign'] * 1e3:8.2f} + {r['residual'] * 1e3:8.2f}")
