"""SparkRunner's job count: one job per iteration, the last one included.

The final assignment comes back with the last iteration's partials, so
no job runs after it."""
import uuid

import pytest

from repro.core import runner
from repro.core.kernels import make_kernel
from repro.core.runner import LocalRunner, SparkRunner
from repro.synth_data import gaussian_mixture


def test_one_job_per_iteration(spark, monkeypatch):
    sc = spark.sparkContext
    X = gaussian_mixture(n=800, d=3, n_centers=6, cluster_std=0.8, seed=2)
    tag = f"iter-{uuid.uuid4().hex}"
    make_ctx = runner.make_ctx

    def labelled(centers, prev, t, *args, **kwargs):
        # Every job started from here on, until the next iteration's ctx,
        # lands in iteration t's group.
        sc.setJobGroup(f"{tag}-{t}", f"iteration {t}")
        return make_ctx(centers, prev, t, *args, **kwargs)

    monkeypatch.setattr(runner, "make_ctx", labelled)
    try:
        res = SparkRunner(spark, n_partitions=3).run(X, 6, make_kernel("yinyang"), n_iters=4, seed=0)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    tracker = sc.statusTracker()
    jobs = [len(tracker.getJobIdsForGroup(f"{tag}-{t}")) for t in range(res.iters_run)]
    assert jobs == [1] * res.iters_run


def test_zero_iterations_rejected(spark):
    X = gaussian_mixture(n=100, d=2, n_centers=3, seed=0)
    for run in (LocalRunner().run, SparkRunner(spark, n_partitions=2).run):
        with pytest.raises(ValueError):
            run(X, 3, make_kernel("lloyd"), n_iters=0)
