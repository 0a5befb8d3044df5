"""IterCtx precompute: drifts, half-distances s(j), groups, block bounds."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ctx import _block_decompose, group_centers, make_ctx
from repro.core.linalg import full_dists


@pytest.fixture(scope="module")
def centers():
    rng = np.random.default_rng(3)
    return rng.normal(size=(25, 6)), rng.normal(size=(25, 6))


def test_delta_is_drift(centers):
    C, P = centers
    ctx = make_ctx(C, P, 1, frozenset())
    assert np.allclose(ctx.delta, np.linalg.norm(C - P, axis=1))


def test_delta_max_ordering(centers):
    C, P = centers
    ctx = make_ctx(C, P, 1, frozenset())
    assert ctx.delta_max1 == ctx.delta.max()
    assert ctx.delta_max2 <= ctx.delta_max1
    assert ctx.delta[ctx.delta_arg1] == ctx.delta_max1


def test_s_is_half_nearest_other(centers):
    C, _ = centers
    ctx = make_ctx(C, C, 0, frozenset({"s"}))
    D = full_dists(C, C) + np.diag(np.full(len(C), np.inf))
    assert np.allclose(ctx.s, 0.5 * D.min(1))


def test_cc_order_sorted(centers):
    C, _ = centers
    ctx = make_ctx(C, C, 0, frozenset({"cc_order"}))
    assert (np.diff(ctx.cc_sorted, axis=1) >= -1e-12).all()
    assert (ctx.cc_order[:, 0] == np.arange(len(C))).all()  # self first


def test_norm_order(centers):
    C, _ = centers
    ctx = make_ctx(C, C, 0, frozenset({"norm_order"}))
    assert (np.diff(ctx.norm_sorted) >= 0).all()
    assert np.allclose(np.sort(np.linalg.norm(C, axis=1)), ctx.norm_sorted)


def test_groups_cover_all(centers):
    C, _ = centers
    ctx = make_ctx(C, C, 0, frozenset({"groups"}))
    assert ctx.groups.shape == (len(C),)
    assert ctx.n_groups == int(np.ceil(len(C) / 10))
    assert ctx.group_delta_max.shape == (ctx.n_groups,)


def test_group_delta_max_bounds_members(centers):
    C, P = centers
    ctx = make_ctx(C, P, 1, frozenset({"groups"}))
    for g in range(ctx.n_groups):
        m = ctx.groups == g
        if m.any():
            assert ctx.group_delta_max[g] >= ctx.delta[m].max() - 1e-12


def test_groups_passed_through(centers):
    C, P = centers
    fixed = np.arange(len(C)) % 3
    ctx = make_ctx(C, P, 1, frozenset({"groups"}), groups=fixed)
    assert np.array_equal(ctx.groups, fixed)


def test_ccprev_cross_distances(centers):
    C, P = centers
    ctx = make_ctx(C, P, 1, frozenset({"ccprev"}))
    assert np.allclose(ctx.ccprev, full_dists(P, C))


def test_group_centers_partition():
    rng = np.random.default_rng(0)
    C = rng.normal(size=(40, 4))
    g = group_centers(C, 4)
    assert set(np.unique(g)) <= set(range(4))
    assert len(g) == 40


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 20), d=st.integers(1, 9), seed=st.integers(0, 500))
def test_block_decomposition_bounds_inner_product(n, d, seed):
    """⟨x, c⟩ ≤ Σ_b (s_xb·s_cb/d_b + r_xb·r_cb) — the Vector kernel's
    correctness hinges on this Cauchy–Schwarz decomposition."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, d))
    C = rng.normal(size=(n, d))
    sm, rm = _block_decompose(M)
    sc, rc = _block_decompose(C)
    h = max(1, d // 2)
    lens = np.array([h, d - h if d - h else h], dtype=float)
    if d == 1:
        return  # duplicated-block edge case is excluded by the kernel
    upper = (sm * sc / lens[None, :]).sum(1) + (rm * rc).sum(1)
    inner = np.einsum("ij,ij->i", M, C)
    assert (inner <= upper + 1e-8).all()


def test_driver_dist_charged(centers):
    C, P = centers
    ctx = make_ctx(C, P, 1, frozenset({"cc"}))
    assert ctx.driver_dist == len(C) * (len(C) - 1) // 2
