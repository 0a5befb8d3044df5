"""Kernel state: every kernel keeps the base state (``a``, ``x2``) and its
``footprint`` counts all of its auxiliary state (Figure 10)."""
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from repro.core.ctx import make_ctx
from repro.core.kernels import REGISTRY, make_kernel
from repro.core.linalg import kmeans_pp_init
from repro.core.metrics import Counters
from repro.synth_data import gaussian_mixture


def _nbytes(v) -> int:
    """Bytes of an array, or of every array inside a tree's fields."""
    if isinstance(v, np.ndarray):
        return v.nbytes
    if is_dataclass(v):
        return sum(_nbytes(getattr(v, f.name)) for f in fields(v))
    return 0


@pytest.fixture(scope="module")
def setup():
    X = gaussian_mixture(n=600, d=4, n_centers=8, cluster_std=0.8, seed=4)
    return X, kmeans_pp_init(X, 12, seed=1)


def _state_after_two_iterations(X, C0, kernel) -> dict:
    st = kernel.init_state(X)
    centers, prev, groups = C0.copy(), C0.copy(), None
    for t in range(2):
        ctx = make_ctx(centers, prev, t, kernel.needs, groups=groups)
        if kernel.fixed_groups:
            groups = ctx.groups
        kernel.assign(X, st, ctx, Counters())
        new = centers.copy()
        for j in np.unique(st["a"]):
            new[j] = X[st["a"] == j].mean(0)
        prev, centers = centers, new
    return st


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_base_state(setup, name):
    X, C0 = setup
    st = _state_after_two_iterations(X, C0, make_kernel(name))
    assert st["a"].dtype == np.int64 and (st["a"] >= 0).all()
    assert np.array_equal(st["x2"], np.einsum("ij,ij->i", X, X))


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_footprint_counts_all_state(setup, name):
    X, C0 = setup
    kernel = make_kernel(name)
    st = _state_after_two_iterations(X, C0, kernel)
    assert kernel.footprint(st) == sum(_nbytes(v) for key, v in st.items() if key != "a")
