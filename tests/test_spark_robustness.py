"""SparkRunner where the equivalence suites do not reach: fewer points than
partitions, and the cached blocks and partials a run leaves behind."""
import numpy as np
import pytest
from py4j.protocol import Py4JJavaError
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
