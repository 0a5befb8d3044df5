"""k-means++ seeding returns exactly the centres of the plain D² algorithm.

``_reference_kmeans_pp`` is the straightforward seeding: every step
recomputes every point's squared distance to the new centre and draws
the next centre with ``rng.choice``. The library's ``kmeans_pp_init``
must reproduce its centres bit for bit on every input below, including
those that stress rounding (data far from the origin) and the branches
for degenerate input (duplicates, all-identical points, k ≥ n).
"""
import numpy as np
import pytest

from repro.core.linalg import kmeans_pp_init


def _reference_kmeans_pp(X: np.ndarray, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = X.shape[0]
    k = min(k, n)
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    idx = rng.integers(n)
    centers[0] = X[idx]
    d2 = np.einsum("ij,ij->i", X - centers[0], X - centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j:] = X[rng.integers(n, size=k - j)]
            break
        probs = d2 / total
        idx = rng.choice(n, p=probs)
        centers[j] = X[idx]
        nd2 = np.einsum("ij,ij->i", X - centers[j], X - centers[j])
        np.minimum(d2, nd2, out=d2)
    return centers


N = 120


def _data(kind: str, d: int) -> np.ndarray:
    rng = np.random.default_rng(100 + d)
    blobs = rng.normal(scale=8.0, size=(6, d))
    X = blobs[rng.integers(6, size=N)] + rng.normal(size=(N, d))
    if kind == "clustered":
        return X
    if kind == "duplicates":
        return X[rng.integers(10, size=N)]
    if kind == "identical":
        return np.repeat(X[:1], N, axis=0)
    if kind == "offset":
        return X + 1e6
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["clustered", "duplicates", "identical", "offset"])
@pytest.mark.parametrize("d", [1, 2, 57])
def test_centres_bit_identical_to_reference(kind, d):
    X = _data(kind, d)
    for k in (1, 2, 40, N, N + 3):
        for seed in (0, 1, 2):
            got = kmeans_pp_init(X, k, seed)
            ref = _reference_kmeans_pp(X, k, seed)
            assert np.array_equal(got, ref), (kind, d, k, seed)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 7])
def test_non_finite_row_raises(bad, row):
    X = _data("clustered", 3)
    X[row, 1] = bad
    for seed in (0, 1, 2):
        with pytest.raises(ValueError):
            kmeans_pp_init(X, 5, seed)
