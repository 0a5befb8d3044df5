"""DataFrame-API Lloyd's algorithm (Catalyst-facing surface).

The pruning kernels live at the RDD layer because their per-point bound
state must persist with the partition (DESIGN.md §2). This module keeps
a pure DataFrame implementation of the baseline: assignment is a
``mapInPandas`` transform against broadcast centroids, refinement a
``groupBy().agg(avg…)``, and both are verified row-for-row against
DuckDB SQL by the oracle tests.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from .kernels.base import argmin
from .linalg import scan_dists
from .runner import skip_unchanged_zip_rereads


def assign_df(df: DataFrame, centers: np.ndarray) -> DataFrame:
    """Append a ``cluster`` column: the nearest-centroid id per row.

    ``df`` must carry an ``id`` column plus feature columns x0..x{d−1}
    (the :func:`repro.synth_data.points_df` layout).
    """
    feat_cols = [c for c in df.columns if c.startswith("x")]
    C = np.ascontiguousarray(centers, dtype=np.float64)
    schema = StructType(
        df.schema.fields + [StructField("cluster", LongType(), False)]
    )

    def _assign(batches):
        skip_unchanged_zip_rereads()
        c2 = np.einsum("ij,ij->i", C, C)
        for pdf in batches:
            X = pdf[feat_cols].to_numpy(dtype=np.float64)
            out = pdf.copy()
            # Lloyd's own distances and pick, so ties go to the lowest id.
            out["cluster"] = scan_dists(X, C, argmin, c2=c2)
            yield out

    return df.mapInPandas(_assign, schema=schema)


def refine_df(assigned: DataFrame) -> DataFrame:
    """Per-cluster centroid means via groupBy aggregation (Catalyst plan)."""
    feat_cols = [c for c in assigned.columns if c.startswith("x")]
    aggs = [F.avg(c).alias(f"c_{c}") for c in feat_cols]
    return assigned.groupBy("cluster").agg(*aggs)


def sse_df(assigned: DataFrame, centers: np.ndarray) -> DataFrame:
    """Single-row SSE (Equation 1) of an assignment, as a DataFrame."""
    feat_cols = [c for c in assigned.columns if c.startswith("x")]
    # Join against a small centroid table — keeps the plan in Catalyst.
    spark = assigned.sparkSession
    cpdf = pd.DataFrame(centers, columns=[f"c_{c}" for c in feat_cols])
    cpdf.insert(0, "cluster", np.arange(len(cpdf)))
    cdf = spark.createDataFrame(cpdf)
    joined = assigned.join(F.broadcast(cdf), "cluster")
    sq = sum((F.col(c) - F.col(f"c_{c}")) ** 2 for c in feat_cols)
    return joined.agg(F.sum(sq).alias("sse"))


def lloyd_df(
    df: DataFrame, k: int, n_iters: int, centers0: np.ndarray
) -> tuple[np.ndarray, DataFrame]:
    """Run Lloyd's via DataFrame ops; returns (centers, final assignment)."""
    centers = np.ascontiguousarray(centers0, dtype=np.float64).copy()
    feat_cols = [c for c in df.columns if c.startswith("x")]
    assigned = None
    for _ in range(n_iters):
        assigned = assign_df(df, centers)
        means = refine_df(assigned).toPandas().set_index("cluster").sort_index()
        new = centers.copy()
        for j, row in means.iterrows():
            new[int(j)] = row[[f"c_{c}" for c in feat_cols]].to_numpy()
        if np.array_equal(new, centers):
            break
        centers = new
    return centers, assigned
