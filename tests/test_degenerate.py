"""Exactness on degenerate inputs."""
import numpy as np
import pytest

from repro.core.kernels import REGISTRY, make_kernel
from repro.core.runner import LocalRunner


@pytest.mark.parametrize("method", sorted(REGISTRY))
def test_single_cluster_matches_lloyd(method):
    """k=1: no centroid besides the assigned one (drak used to store a
    bound for one anyway and raised ValueError)."""
    X = np.random.default_rng(0).normal(size=(300, 3))
    ref = LocalRunner().run(X, 1, make_kernel("lloyd"), n_iters=5, seed=0)
    got = LocalRunner().run(X, 1, make_kernel(method), n_iters=5, seed=0)
    assert (got.assign == ref.assign).all()
    assert got.iters_run == ref.iters_run
    assert np.allclose(got.centers, ref.centers)


@pytest.mark.parametrize("method", sorted(REGISTRY))
def test_one_dimension_matches_lloyd_to_convergence(method):
    """d=1: a centroid on x's side of the origin sits exactly on the edge of
    annu's norm annulus, |‖c‖ − ‖x‖| = d(x, c). annu used to round it out of
    its candidate window and stop after 13 iterations with 52 points
    assigned differently from Lloyd's 23."""
    X = np.random.default_rng(0).normal(size=(800, 1))
    ref = LocalRunner().run(X, 12, make_kernel("lloyd"), n_iters=300, seed=0)
    got = LocalRunner().run(X, 12, make_kernel(method), n_iters=300, seed=0)
    assert (got.assign == ref.assign).all()
    assert got.iters_run == ref.iters_run
    assert np.allclose(got.centers, ref.centers)


@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("method", ["index", "kdindex", "search", "unik"])
def test_exact_ties_match_lloyd(method, seed):
    """Integer points and half-integer centroids put many points at exactly
    equal distance from two centroids. A tree kernel must break every such
    tie like Lloyd's argmin, toward the lowest centroid id: kdindex used to
    prune a centroid tied with z* at the box corner, and search took points
    at exactly s(j) into centroid j's ball."""
    rng = np.random.default_rng(seed)
    d, k = [1, 2, 3][seed % 3], [3, 5, 8, 12][seed % 4]
    X = rng.integers(0, 6, (400, d)).astype(float)
    C0 = X[rng.choice(len(X), k, replace=False)] + rng.integers(0, 2, (k, d)) * 0.5
    ref = LocalRunner().run(X, k, make_kernel("lloyd"), n_iters=20, centers0=C0)
    got = LocalRunner().run(X, k, make_kernel(method), n_iters=20, centers0=C0)
    assert (got.assign == ref.assign).all()
    assert got.iters_run == ref.iters_run


@pytest.mark.parametrize("seed", range(24))
@pytest.mark.parametrize("method", sorted(REGISTRY))
def test_exact_ties_at_ball_edge_match_lloyd(method, seed):
    """The exact-tie recipe with centroids drawn by ``permutation``: at seed
    12 a lower-id centroid lies exactly on a ball's edge, where Moore's rule
    compared expanded-form node distances with no rounding margin and
    pruned it."""
    rng = np.random.default_rng(seed)
    d, k = [1, 2, 3][seed % 3], [3, 5, 8, 12][seed % 4]
    X = rng.integers(0, 6, (400, d)).astype(float)
    C0 = X[rng.permutation(len(X))[:k]] + rng.integers(0, 2, (k, d)) * 0.5
    ref = LocalRunner().run(X, k, make_kernel("lloyd"), n_iters=20, centers0=C0)
    got = LocalRunner().run(X, k, make_kernel(method), n_iters=20, centers0=C0)
    assert (got.assign == ref.assign).all()
    assert got.iters_run == ref.iters_run


@pytest.mark.parametrize("seed", range(24))
@pytest.mark.parametrize("method", [
    "yinyang", "regroup", "hame", "elka", "drak", "heap", "annu", "expo",
    "drift", "vector", "pami20", "full", "lloyd",
])
def test_exact_ties_match_lloyd_sequential(method, seed):
    """The same exact-tie recipe for the sequential bound kernels: each
    new assignment is the first minimum by centroid id, like Lloyd's
    argmin, however the kernel orders its candidate pairs."""
    rng = np.random.default_rng(seed)
    d, k = [1, 2, 3][seed % 3], [3, 5, 8, 12][seed % 4]
    X = rng.integers(0, 6, (400, d)).astype(float)
    C0 = X[rng.choice(len(X), k, replace=False)] + rng.integers(0, 2, (k, d)) * 0.5
    ref = LocalRunner().run(X, k, make_kernel("lloyd"), n_iters=20, centers0=C0)
    got = LocalRunner().run(X, k, make_kernel(method), n_iters=20, centers0=C0)
    assert (got.assign == ref.assign).all()
    assert got.iters_run == ref.iters_run
