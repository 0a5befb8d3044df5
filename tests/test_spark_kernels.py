"""SparkRunner ≡ LocalRunner for every registered kernel, and the shape of
one Spark iteration (one job, one stage, no shuffle)."""
import uuid

import numpy as np
import pytest

from repro.core import runner as runner_mod
from repro.core.kernels import REGISTRY, make_kernel
from repro.core.runner import LocalRunner, SparkRunner
from repro.synth_data import gaussian_mixture

COUNTS = ("dist", "data_access", "bound_access", "bound_update", "node_access")

#: Kernels whose counts depend on how points are split into partitions:
#: heap reads each cluster's heap top once per partition, and index,
#: kdindex, search and unik build one tree per partition, so which
#: bounds and nodes they touch changes with the split. Their results
#: still match; only their counts may differ (at this test's sizes:
#: heap bound_access 4039 on 4 partitions vs 3814 on one, unik dist
#: 47473 vs 27827).
SPLIT_DEPENDENT_COUNTS = {"heap", "index", "kdindex", "search", "unik"}


@pytest.fixture(scope="module")
def X():
    return gaussian_mixture(n=3000, d=6, n_centers=10, cluster_std=0.8, seed=5)


@pytest.mark.parametrize("method", sorted(REGISTRY))
def test_every_kernel_spark_matches_local(spark, X, method):
    local = LocalRunner().run(X, 15, make_kernel(method), n_iters=6, seed=1)
    dist = SparkRunner(spark, n_partitions=4).run(
        X, 15, make_kernel(method), n_iters=6, seed=1
    )
    assert (dist.assign == local.assign).all()
    assert dist.iters_run == local.iters_run
    assert np.allclose(dist.centers, local.centers)
    if method not in SPLIT_DEPENDENT_COUNTS:
        for c in COUNTS:
            assert getattr(dist.counters, c) == getattr(local.counters, c), c


def test_spark_iteration_is_one_job_with_one_stage(spark, X, monkeypatch):
    """Each iteration runs its own Spark job group; every group but the
    last (which also holds the final assignment collect) must hold exactly
    one job of one stage with one task per partition."""
    sc = spark.sparkContext
    run_id = uuid.uuid4().hex
    make_ctx = runner_mod.make_ctx

    def make_ctx_in_group(*args, **kwargs):
        ctx = make_ctx(*args, **kwargs)
        sc.setJobGroup(f"{run_id}-{ctx.iter_idx}", "one SparkRunner iteration")
        return ctx

    monkeypatch.setattr(runner_mod, "make_ctx", make_ctx_in_group)
    try:
        res = SparkRunner(spark, n_partitions=4).run(
            X, 15, make_kernel("hame"), n_iters=4, seed=1
        )
    finally:
        for key in ("spark.jobGroup.id", "spark.job.description"):
            sc.setLocalProperty(key, None)
    assert res.iters_run == 4
    tracker = sc.statusTracker()
    for t in range(res.iters_run - 1):
        jobs = tracker.getJobIdsForGroup(f"{run_id}-{t}")
        assert len(jobs) == 1, f"iteration {t} ran jobs {jobs}"
        stages = list(tracker.getJobInfo(jobs[0]).stageIds)
        assert len(stages) == 1, f"iteration {t} ran stages {stages}"
        assert tracker.getStageInfo(stages[0]).numTasks == 4
