"""SparkRunner ≡ LocalRunner: the distributed mapPartitions/reduceByKey
pipeline must not change any result (exact k-means is partition-
independent)."""
import importlib
import sys
import zipimport

import numpy as np
import pytest

from repro.core.kernels import make_kernel
from repro.core.runner import LocalRunner, SparkRunner, skip_unchanged_zip_rereads
from repro.synth_data import gaussian_mixture


@pytest.fixture(scope="module")
def X():
    return gaussian_mixture(n=3000, d=6, n_centers=10, cluster_std=0.8, seed=5)


@pytest.mark.parametrize(
    "method", ["lloyd", "hame", "elka", "yinyang", "drak", "heap", "index", "unik"]
)
def test_spark_matches_local(spark, X, method):
    local = LocalRunner().run(X, 15, make_kernel(method), n_iters=6, seed=1)
    dist = SparkRunner(spark, n_partitions=4).run(
        X, 15, make_kernel(method), n_iters=6, seed=1
    )
    assert np.allclose(local.centers, dist.centers)
    assert (local.assign == dist.assign).all()
    assert np.isclose(local.sse, dist.sse)


@pytest.mark.parametrize("n_partitions", [1, 3, 8])
def test_partition_count_invariance(spark, X, n_partitions):
    ref = LocalRunner().run(X, 8, make_kernel("yinyang"), n_iters=5, seed=0)
    got = SparkRunner(spark, n_partitions=n_partitions).run(
        X, 8, make_kernel("yinyang"), n_iters=5, seed=0
    )
    assert np.allclose(ref.centers, got.centers)


def test_spark_counters_match_local_distances(spark, X):
    """Distance counts are partition-decomposable: totals must agree."""
    local = LocalRunner().run(X, 10, make_kernel("hame"), n_iters=5, seed=2)
    dist = SparkRunner(spark, n_partitions=4).run(
        X, 10, make_kernel("hame"), n_iters=5, seed=2
    )
    # same iterations, same pruning decisions per point → same counts
    assert dist.counters.dist == local.counters.dist
    assert dist.counters.data_access == local.counters.data_access


def test_spark_timings_recorded(spark, X):
    res = SparkRunner(spark, n_partitions=2).run(
        X, 6, make_kernel("lloyd"), n_iters=3, seed=0
    )
    assert res.counters.assign_time > 0
    assert len(res.iter_times) == res.iters_run


def test_tasks_skip_unchanged_zip_rereads(spark):
    """PySpark calls ``importlib.invalidate_caches()`` before every task; once
    a task has run the helper, that call re-reads none of the worker's
    (unchanged) zip archives."""
    def probe(_):
        skip_unchanged_zip_rereads()
        importlib.invalidate_caches()  # an importer's first call after the swap reads
        reads = []
        stock_read = zipimport._read_directory
        zipimport._read_directory = lambda p: reads.append(p) or stock_read(p)
        try:
            importlib.invalidate_caches()
        finally:
            zipimport._read_directory = stock_read
        zips = [f for f in sys.path_importer_cache.values() if isinstance(f, zipimport.zipimporter)]
        yield len(zips), len(reads)

    got = spark.sparkContext.parallelize(range(4), 4).mapPartitions(probe).collect()
    assert all(n_zips > 0 for n_zips, _ in got)
    assert [n_reads for _, n_reads in got] == [0, 0, 0, 0]
