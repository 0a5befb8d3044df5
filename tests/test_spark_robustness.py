"""SparkRunner where the equivalence suites do not reach: fewer points than
partitions, a task closure over PySpark's 1 MB threshold, and the cached
blocks and partials a run leaves behind."""
from collections import Counter

import numpy as np
import pytest
from py4j.protocol import Py4JJavaError
from pyspark import RDD, SparkContext
from pyspark.accumulators import _accumulatorRegistry

from repro.core.kernels import REGISTRY, make_kernel
from repro.core.kernels.lloyd import LloydKernel
from repro.core.runner import LocalRunner, SparkRunner
from repro.synth_data import gaussian_mixture


class FailingKernel(LloydKernel):
    """Lloyd whose assignment raises from the second iteration on."""

    def assign(self, X, st, ctx, counters):
        if ctx.iter_idx > 0:
            raise RuntimeError("assign failed")
        super().assign(X, st, ctx, counters)


@pytest.mark.parametrize("method", sorted(REGISTRY))
def test_fewer_points_than_partitions(spark, method):
    """n=6 on 8 partitions: no block may be empty (annu, index, kdindex,
    pami20 and unik used to raise on the empty ones)."""
    X = np.random.default_rng(1).normal(size=(6, 3))
    local = LocalRunner().run(X, 2, make_kernel(method), n_iters=10, seed=0)
    dist = SparkRunner(spark, n_partitions=8).run(
        X, 2, make_kernel(method), n_iters=10, seed=0
    )
    assert (dist.assign == local.assign).all()
    assert dist.iters_run == local.iters_run
    assert np.allclose(dist.centers, local.centers)


def test_run_releases_cached_blocks_and_partials(spark):
    """After a run that returns and after one that raises mid-iteration,
    no block RDD of the run stays persisted and no partial stays held."""
    X = gaussian_mixture(n=600, d=4, n_centers=5, cluster_std=0.8, seed=3)
    jsc = spark.sparkContext._jsc
    persisted = len(jsc.getPersistentRDDs())
    SparkRunner(spark, n_partitions=4).run(X, 5, make_kernel("hame"), n_iters=3)
    assert len(jsc.getPersistentRDDs()) == persisted
    with pytest.raises(Py4JJavaError, match="assign failed"):
        SparkRunner(spark, n_partitions=4).run(X, 5, FailingKernel(), n_iters=3)
    assert len(jsc.getPersistentRDDs()) == persisted
    assert not any(
        isinstance(acc._value, dict) and acc._value for acc in _accumulatorRegistry.values()
    )


def test_run_unpersists_each_rdd_once(spark, monkeypatch):
    """A run that returns and one that raises mid-iteration each release
    every block RDD they cached exactly once."""
    X = gaussian_mixture(n=600, d=4, n_centers=5, cluster_std=0.8, seed=3)
    released = []
    unpersist = RDD.unpersist

    def counted(self, *args, **kwargs):
        released.append(self.id())
        return unpersist(self, *args, **kwargs)

    monkeypatch.setattr(RDD, "unpersist", counted)
    SparkRunner(spark, n_partitions=4).run(X, 5, make_kernel("hame"), n_iters=3)
    assert released and max(Counter(released).values()) == 1, released
    released.clear()
    with pytest.raises(Py4JJavaError, match="assign failed"):
        SparkRunner(spark, n_partitions=4).run(X, 5, FailingKernel(), n_iters=3)
    assert released and max(Counter(released).values()) == 1, released


@pytest.mark.parametrize("method", ["elka", "drift", "expo"])
def test_ctx_over_1mb_travels_in_the_closure(spark, monkeypatch, method):
    """At k=500 these kernels' IterCtx pickles to 1.9–5.8 MiB, so each
    iteration's task closure is over PySpark's 1 MB threshold and goes out
    as PySpark's own broadcast of the pickled command; the runner itself
    broadcasts nothing. The run still matches LocalRunner."""
    X = gaussian_mixture(n=3000, d=6, n_centers=10, cluster_std=0.8, seed=5)
    local = LocalRunner().run(X, 500, make_kernel(method), n_iters=4, seed=1)
    values = []
    broadcast = SparkContext.broadcast

    def recorded(self, value):
        values.append(value)
        return broadcast(self, value)

    monkeypatch.setattr(SparkContext, "broadcast", recorded)
    dist = SparkRunner(spark, n_partitions=4).run(
        X, 500, make_kernel(method), n_iters=4, seed=1
    )
    assert values and all(isinstance(v, bytes) for v in values), [type(v) for v in values]
    assert (dist.assign == local.assign).all()
    assert dist.iters_run == local.iters_run
    assert np.allclose(dist.centers, local.centers)
    assert dist.counters.dist == local.counters.dist
