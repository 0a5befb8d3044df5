"""spark-submit entrypoint: run one k-means method on one dataset.

    spark-submit jobs/run_kmeans.py --dataset NYC --k 100 --method unik
"""
import argparse
import statistics
import sys

from pyspark.sql import SparkSession

from repro.core.kernels import REGISTRY, make_kernel
from repro.core.runner import SparkRunner
from repro.data.datasets import ALL_SPECS


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--dataset", default="KeggDirect", choices=sorted(ALL_SPECS))
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--method", default="unik", choices=sorted(REGISTRY))
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--partitions", type=int, default=4)
    args = p.parse_args(argv)

    spark = SparkSession.builder.appName(f"kmeans-{args.method}").getOrCreate()
    X = ALL_SPECS[args.dataset].load()
    res = SparkRunner(spark, n_partitions=args.partitions).run(
        X, args.k, make_kernel(args.method), n_iters=args.iters, seed=args.seed
    )
    c = res.counters
    print(
        f"dataset={args.dataset} n={X.shape[0]} d={X.shape[1]} k={args.k} "
        f"method={args.method} iters={res.iters_run}\n"
        f"sse={res.sse:.4e} algo_time={c.assign_time + c.refine_time:.4f}s "
        f"wall={res.total_time:.2f}s "
        f"iter_p50={1e3 * statistics.median(res.iter_times):.0f}ms "
        f"seed={1e3 * res.seed_time:.0f}ms\n"
        f"dist={c.dist} pruned={c.pruned_fraction(X.shape[0], args.k, res.iters_run):.1%} "
        f"data_access={c.data_access} bound_access={c.bound_access} "
        f"node_access={c.node_access} footprint={c.footprint_bytes}B"
    )
    spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
