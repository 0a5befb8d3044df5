"""Synthetic point clouds for the k-means reproduction.

:func:`gaussian_mixture` draws the numpy point sets behind the dataset
stand-ins (``repro.data.datasets``) and the tests; :func:`points_df`
gives a Spark DataFrame view of a point set. Both are deterministic in
their inputs.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def gaussian_mixture(
    *,
    n: int,
    d: int,
    n_centers: int,
    cluster_std: float = 1.0,
    box: float = 10.0,
    uniform_frac: float = 0.0,
    skew: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Gaussian-mixture point cloud for the k-means reproduction.

    ``uniform_frac`` mixes in box-uniform noise (poorly "assembled"
    data, § 7.2.4's failure mode for index pruning); ``skew`` > 0 makes
    cluster sizes Zipf-skewed. Deterministic in ``seed``. Returns a
    numpy (n, d) float64 array — the clustering kernels are numpy-side;
    use :func:`points_df` for a Spark DataFrame view.
    """
    g = np.random.default_rng(seed)
    n_noise = int(n * uniform_frac)
    n_clustered = n - n_noise
    if skew > 0:
        w = 1.0 / np.arange(1, n_centers + 1) ** skew
        w /= w.sum()
    else:
        w = np.full(n_centers, 1.0 / n_centers)
    sizes = g.multinomial(n_clustered, w)
    centers = g.uniform(-box, box, size=(n_centers, d))
    parts = [
        centers[j] + g.normal(scale=cluster_std, size=(sizes[j], d))
        for j in range(n_centers)
        if sizes[j] > 0
    ]
    if n_noise:
        parts.append(g.uniform(-box, box, size=(n_noise, d)))
    X = np.vstack(parts)
    g.shuffle(X)
    return X


def points_df(spark: SparkSession, X: np.ndarray) -> DataFrame:
    """Spark DataFrame view (id + one column per dimension) of a point set."""
    pdf = pd.DataFrame(X, columns=[f"x{i}" for i in range(X.shape[1])])
    pdf.insert(0, "id", np.arange(len(pdf)))
    return spark.createDataFrame(pdf)
