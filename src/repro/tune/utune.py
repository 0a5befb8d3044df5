"""UTune — ground-truth generation, meta-model training, prediction (§6).

Two ground-truth files, as in the paper:

* **g1 (bound config)** — ranking of the sequential bound methods by
  measured 10-iteration time. *Full running* ranks all 13 sequential
  methods; *selective running* (Algorithm 2) only the five leaderboard
  methods {Hame, Drak, Heap, Yinyang, Regroup} with a reduced t_max, so
  more tasks fit in the same time budget.
* **g2 (index config)** — ranking of the four traversal modes
  {none, pure, single, multiple}; selective running skips the
  single/multiple probes whenever the pure index already loses to the
  best sequential method.

MRR (Equation 13) scores a model by the reciprocal rank of its
predicted configuration inside the measured ranking.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.kernels import SEQUENTIAL, make_kernel
from ..core.linalg import kmeans_pp_init
from ..core.runner import LocalRunner
from .features import FEATURE_SETS, extract_features
from .models import BDT, MODEL_FACTORIES

#: §7.2.2 leaderboard — the selective-running pool.
BOUND_POOL_SELECTIVE = ["hame", "drak", "heap", "yinyang", "regroup"]
BOUND_POOL_FULL = [m for m in SEQUENTIAL if m != "search"]  # Search: excluded (§6.1)
INDEX_MODES = ["none", "pure", "single", "multiple"]


@dataclass
class TaskRecord:
    dataset: str
    n: int
    k: int
    d: int
    features: np.ndarray
    bound_ranking: list[str] = field(default_factory=list)   # fastest first
    index_ranking: list[str] = field(default_factory=list)
    times: dict = field(default_factory=dict)
    gen_time: float = 0.0


def _mode_kernel(mode: str, bound_method: str):
    if mode == "none":
        return make_kernel(bound_method)
    if mode == "pure":
        return make_kernel("index")
    return make_kernel("unik", traversal=f"index-{mode}")


def run_task(
    X: np.ndarray,
    k: int,
    dataset: str = "?",
    selective: bool = True,
    n_iters: int | None = None,
    seed: int = 0,
) -> TaskRecord:
    """Measure one clustering task and build its g1/g2 rankings."""
    t_start = time.perf_counter()
    iters = n_iters if n_iters is not None else (5 if selective else 10)
    feats = extract_features(X, k)
    rec = TaskRecord(dataset=dataset, n=X.shape[0], k=k, d=X.shape[1], features=feats)
    runner = LocalRunner()
    pool = BOUND_POOL_SELECTIVE if selective else BOUND_POOL_FULL
    d = X.shape[1]
    # Every configuration starts from the seeding the runner would draw.
    centers0 = kmeans_pp_init(np.ascontiguousarray(X, dtype=np.float64), k, seed)

    def _time(kernel) -> float:
        # Rank configurations by the scalar-execution cost model — the
        # same metric Table 6 reports (EXPERIMENTS.md § Timing) — so the
        # learned selector optimizes the quantity the paper measures.
        res = runner.run(X, k, kernel, n_iters=iters, centers0=centers0)
        return res.counters.work_units(d)

    for name in pool:
        rec.times[name] = _time(make_kernel(name))
    rec.bound_ranking = sorted(pool, key=lambda m: rec.times[m])
    best_seq = rec.bound_ranking[0]
    rec.times["none"] = rec.times[best_seq]
    rec.times["pure"] = _time(make_kernel("index"))
    if selective and rec.times["pure"] > rec.times["none"]:
        # Algorithm 2: index loses outright — skip the traversal probes.
        measured = ["none", "pure"]
    else:
        rec.times["single"] = _time(make_kernel("unik", traversal="index-single"))
        rec.times["multiple"] = _time(make_kernel("unik", traversal="index-multiple"))
        measured = INDEX_MODES
    rec.index_ranking = sorted(measured, key=lambda m: rec.times[m]) + [
        m for m in INDEX_MODES if m not in measured
    ]
    rec.gen_time = time.perf_counter() - t_start
    return rec


def generate_ground_truth(
    tasks: list[tuple[str, np.ndarray, int]],
    selective: bool = True,
    budget_s: float | None = None,
    seed: int = 0,
) -> list[TaskRecord]:
    """Run the task grid until done or the time budget is exhausted."""
    records: list[TaskRecord] = []
    t0 = time.perf_counter()
    for name, X, k in tasks:
        if budget_s is not None and time.perf_counter() - t0 > budget_s:
            break
        records.append(run_task(X, k, dataset=name, selective=selective, seed=seed))
    return records


# ---------------------------------------------------------------------------
# Training + MRR


def _label_space(records: list[TaskRecord], which: str) -> list[str]:
    if which == "bound":
        seen = {r.bound_ranking[0] for r in records}
        base = BOUND_POOL_FULL
    else:
        seen = {r.index_ranking[0] for r in records}
        base = INDEX_MODES
    return [m for m in base if m in seen] or base[:1]


def mrr(preds: list[str], rankings: list[list[str]]) -> float:
    """Mean reciprocal rank of predictions inside measured rankings."""
    total = 0.0
    for p, ranking in zip(preds, rankings):
        rank = ranking.index(p) + 1 if p in ranking else len(ranking) + 1
        total += 1.0 / rank
    return total / max(1, len(preds))


@dataclass
class TrainedModel:
    model: object
    classes: list[str]
    feature_slice: slice
    train_time: float
    predict_time: float = 0.0

    def predict(self, feats: np.ndarray) -> list[str]:
        t0 = time.perf_counter()
        y = self.model.predict(np.atleast_2d(feats)[:, self.feature_slice])
        self.predict_time = time.perf_counter() - t0
        return [self.classes[int(i)] for i in y]


def train_model(
    records: list[TaskRecord],
    which: str,                      # "bound" | "index"
    model_name: str,                 # "BDT" | "DT" | "RF" | "SVM" | "kNN" | "RC"
    feature_set: str = "leaf",       # "basic" | "tree" | "leaf"
) -> TrainedModel:
    classes = _label_space(records, which)
    label_of = {c: i for i, c in enumerate(classes)}
    X = np.stack([r.features for r in records])
    y = np.array(
        [
            label_of.get(
                (r.bound_ranking if which == "bound" else r.index_ranking)[0], 0
            )
            for r in records
        ]
    )
    sl = FEATURE_SETS[feature_set]
    if model_name == "BDT":
        # BDT's rules may name classes absent from the observed space.
        for fallback in ("pure", "none", "yinyang", "hame"):
            if fallback not in label_of and (
                (which == "index" and fallback in ("pure", "none"))
                or (which == "bound" and fallback in ("yinyang", "hame"))
            ):
                label_of[fallback] = 0
        model = BDT(which, label_of)
        classes_out = classes
        t0 = time.perf_counter()
        model.fit(X[:, FEATURE_SETS["basic"]], y)
        tt = time.perf_counter() - t0
        return TrainedModel(model, classes_out, FEATURE_SETS["basic"], tt)
    model = MODEL_FACTORIES[model_name]()
    t0 = time.perf_counter()
    model.fit(X[:, sl], y)
    tt = time.perf_counter() - t0
    return TrainedModel(model, classes, sl, tt)


def evaluate_mrr(
    records: list[TaskRecord], tm: TrainedModel, which: str
) -> float:
    feats = np.stack([r.features for r in records])
    preds = tm.predict(feats)
    rankings = [
        r.bound_ranking if which == "bound" else r.index_ranking for r in records
    ]
    return mrr(preds, rankings)


def split_records(
    records: list[TaskRecord], test_frac: float = 0.3, seed: int = 0
) -> tuple[list[TaskRecord], list[TaskRecord]]:
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(records))
    n_test = max(1, int(len(records) * test_frac))
    test = [records[i] for i in idx[:n_test]]
    train = [records[i] for i in idx[n_test:]]
    return train, test


class UTune:
    """The auto-tuner: DT-backed bound + index configuration predictor."""

    def __init__(self, records: list[TaskRecord], model_name: str = "DT",
                 feature_set: str = "leaf"):
        self.bound_model = train_model(records, "bound", model_name, feature_set)
        self.index_model = train_model(records, "index", model_name, feature_set)

    def predict_config(self, X: np.ndarray, k: int) -> tuple[str, str]:
        feats = extract_features(X, k)
        bound = self.bound_model.predict(feats)[0]
        mode = self.index_model.predict(feats)[0]
        return bound, mode

    def make_kernel(self, X: np.ndarray, k: int):
        bound, mode = self.predict_config(X, k)
        return _mode_kernel(mode, bound)
