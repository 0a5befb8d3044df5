"""Unit tests for distance primitives, seeding and SSE."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.kernels.base import argmin, top2
from repro.core.linalg import (
    SCAN_ROWS,
    candidate_dists,
    full_dists,
    kmeans_pp_init,
    pair_dists,
    random_init,
    scan_dists,
    sse,
)
from repro.core.metrics import Counters
from repro.index.base import BLOCK


def _brute(X, C):
    return np.linalg.norm(X[:, None, :] - C[None, :, :], axis=2)


@pytest.fixture(scope="module")
def xc():
    rng = np.random.default_rng(0)
    return rng.normal(size=(50, 7)), rng.normal(size=(9, 7))


def test_full_dists_matches_brute(xc):
    X, C = xc
    assert np.allclose(full_dists(X, C), _brute(X, C))


def test_full_dists_counts(xc):
    X, C = xc
    c = Counters()
    full_dists(X, C, c)
    assert c.dist == 50 * 9
    assert c.data_access == 50 * 9


SCAN_NS = [1, SCAN_ROWS - 1, SCAN_ROWS, 2 * SCAN_ROWS + 1]


def _scan_case(d, k, n):
    rng = np.random.default_rng([d, k, n])
    return rng.normal(size=(n, d)), rng.normal(size=(k, d))


@pytest.mark.parametrize("d", [1, 2, 57, 784])
@pytest.mark.parametrize("k", [1, 2, 100])
@pytest.mark.parametrize("n", SCAN_NS)
def test_scan_dists_identity_pick_is_full_dists(d, k, n):
    """Both walk the same row blocks, so they agree bit for bit at any
    BLAS thread count."""
    X, C = _scan_case(d, k, n)
    assert np.array_equal(scan_dists(X, C, np.copy), full_dists(X, C))


_ONE_THREAD_CHECK = """
import json, sys
import numpy as np
from repro.core.linalg import SCAN_ROWS, scan_dists


def sq_dists(X, C, x2=None, c2=None):
    if x2 is None:
        x2 = np.einsum("ij,ij->i", X, X)
    if c2 is None:
        c2 = np.einsum("ij,ij->i", C, C)
    d2 = x2[:, None] + c2[None, :] - 2.0 * (X @ C.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


bad = []
for d in (1, 2, 57, 784):
    for k in (1, 2, 100):
        for n in (1, SCAN_ROWS - 1, SCAN_ROWS, 2 * SCAN_ROWS + 1):
            rng = np.random.default_rng([d, k, n])
            X, C = rng.normal(size=(n, d)), rng.normal(size=(k, d))
            if not np.array_equal(scan_dists(X, C, np.copy), np.sqrt(sq_dists(X, C))):
                bad.append([d, k, n])
print(json.dumps(bad))
"""


def _run_one_thread(script):
    path = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout)


def test_scan_dists_blocks_keep_one_shot_bits_at_one_thread():
    """At one BLAS thread, blocking changes no bit of the one-shot grid
    ``sqrt(sq_dists)`` (with more threads, the GEMM's split of the whole
    grid can round a row's sums differently from a block's)."""
    assert _run_one_thread(_ONE_THREAD_CHECK) == []


_CANDIDATE_CHECK = """
import json
import numpy as np
from repro.core.linalg import SCAN_ROWS, candidate_dists, scan_dists
bad = []
for d in (1, 2, 57, 784):
    rng = np.random.default_rng([d, 3])
    X, C = rng.normal(size=(3 * SCAN_ROWS, d)), rng.normal(size=(100, d))
    lloyd = scan_dists(X, C, np.copy)
    for F in (1, 2, SCAN_ROWS + 1):
        r1 = rng.permutation(len(X))[:F]
        rr, cols = np.nonzero(np.ones((F, len(C)), dtype=bool))
        got = candidate_dists(X, C, r1, rr, cols, x2=np.einsum("ij,ij->i", X, X))
        if not np.array_equal(got, lloyd[r1[rr], cols]):
            bad.append([d, F])
print(json.dumps(bad))
"""


@pytest.fixture(scope="module")
def candidate_mismatches():
    return _run_one_thread(_CANDIDATE_CHECK)


# Whether a lone row's sums round differently depends on the data, so
# these cases may also pass.
_ALONE_ROW = pytest.mark.xfail(strict=False, reason=(
    "a row OpenBLAS multiplies alone, a one-row block (GEMV) or an odd "
    "block's last row (a one-row micro-tile), can round differently from "
    "the same row inside Lloyd's even 1024-row blocks at large d"))


@pytest.mark.parametrize("d, F", [
    (d, F) if d < 57 or F % 2 == 0 else pytest.param(d, F, marks=_ALONE_ROW)
    for d in (1, 2, 57, 784) for F in (1, 2, SCAN_ROWS + 1)])
def test_candidate_dense_rows_are_lloyds_at_one_thread(candidate_mismatches, d, F):
    """``candidate_dists``' dense path, on F unsorted gathered rows, gives
    the bits of Lloyd's blocked scan for those rows."""
    assert [d, F] not in candidate_mismatches


def test_scan_dists_tuple_pick_and_counts():
    X, C = _scan_case(5, 7, 2 * SCAN_ROWS + 3)
    c = Counters()
    got = scan_dists(X, C, top2, c)
    want = top2(full_dists(X, C))
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert c.dist == c.data_access == len(X) * len(C)


def test_scan_dists_empty_rows():
    X, C = np.empty((0, 3)), np.ones((4, 3))
    assert scan_dists(X, C, argmin).shape == (0,)


def test_pair_dists_matches_brute(xc):
    X, C = xc
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 50, 40)
    cols = rng.integers(0, 9, 40)
    ref = _brute(X, C)[rows, cols]
    assert np.allclose(pair_dists(X, C, rows, cols), ref)


def _pair_ref(X, C, rows, cols, x2, c2):
    """Every pair at once by fancy indexing, in ``pair_dists``' order."""
    xs, cs = X[rows], C[cols]
    x2r = np.einsum("ij,ij->i", xs, xs) if x2 is None else x2[rows]
    c2r = np.einsum("ij,ij->i", cs, cs) if c2 is None else c2[cols]
    return np.sqrt(np.maximum(x2r + c2r - 2.0 * np.einsum("ij,ij->i", xs, cs), 0.0))


@pytest.mark.parametrize("d", [1, 2, 57])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("norms", [False, True])
def test_pair_and_candidate_dists_bits(d, dtype, order, norms):
    rng = np.random.default_rng([d, norms])
    X = np.asarray(rng.normal(size=(700, d)), order=order)
    C = rng.normal(size=(40, d))
    x2 = np.einsum("ij,ij->i", X, X) if norms else None
    c2 = np.einsum("ij,ij->i", C, C) if norms else None
    # More pairs than one block holds, unsorted and with repeats.
    n_pairs = 3 * (BLOCK // d) + 7
    rows = rng.integers(0, 700, n_pairs).astype(dtype)
    cols = rng.integers(0, 40, n_pairs).astype(dtype)
    ref = _pair_ref(X, C, rows, cols, x2, c2)
    assert np.array_equal(pair_dists(X, C, rows, cols, x2=x2, c2=c2), ref)
    # candidate_dists' sparse path: pairs (r1[rr], cols).
    r1 = rng.permutation(700)[:300].astype(dtype)
    rr = np.sort(rng.integers(0, 300, 900)).astype(dtype)
    cc = rng.integers(0, 40, 900).astype(dtype)
    got = candidate_dists(X, C, r1, rr, cc, x2=x2, c2=c2)
    assert np.array_equal(got, _pair_ref(X, C, r1[rr], cc, x2, c2))


def test_pair_dists_with_cached_norms(xc):
    X, C = xc
    x2 = np.einsum("ij,ij->i", X, X)
    c2 = np.einsum("ij,ij->i", C, C)
    rows = np.array([0, 3, 10])
    cols = np.array([1, 2, 8])
    assert np.allclose(
        pair_dists(X, C, rows, cols, x2=x2, c2=c2), _brute(X, C)[rows, cols]
    )


def test_pair_dists_empty(xc):
    X, C = xc
    out = pair_dists(X, C, np.empty(0, dtype=int), np.empty(0, dtype=int))
    assert out.size == 0


@pytest.mark.parametrize("density", [0.05, 0.5, 1.0])
def test_candidate_dists_sparse_dense_agree(xc, density):
    X, C = xc
    rng = np.random.default_rng(2)
    r1 = np.arange(30)
    M = rng.random((30, 9)) < density
    rr, cols = np.nonzero(M)
    ref = _brute(X[r1], C)[rr, cols]
    got = candidate_dists(X, C, r1, rr, cols, Counters())
    assert np.allclose(got, ref)


def test_candidate_dists_counts_only_pairs(xc):
    X, C = xc
    r1 = np.arange(30)
    rr, cols = np.nonzero(np.ones((30, 9), dtype=bool))  # dense path
    c = Counters()
    candidate_dists(X, C, r1, rr, cols, c)
    assert c.dist == len(rr)


def test_cdist_cc_symmetric(xc):
    _, C = xc
    D = full_dists(C, C)
    assert np.allclose(D, D.T)
    assert np.allclose(np.diag(D), 0.0)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_kmeanspp_deterministic_and_valid(xc, k):
    X, _ = xc
    C1 = kmeans_pp_init(X, k, seed=5)
    C2 = kmeans_pp_init(X, k, seed=5)
    assert np.array_equal(C1, C2)
    assert C1.shape == (k, X.shape[1])
    # every centroid is an input point
    for c in C1:
        assert np.any(np.all(np.isclose(X, c), axis=1))


def test_kmeanspp_different_seeds_differ(xc):
    X, _ = xc
    assert not np.array_equal(kmeans_pp_init(X, 5, 0), kmeans_pp_init(X, 5, 1))


def test_random_init_unique_rows(xc):
    X, _ = xc
    C = random_init(X, 10, seed=3)
    assert len(np.unique(C, axis=0)) == 10


def test_sse_zero_for_self_centers():
    X = np.arange(12, dtype=float).reshape(4, 3)
    assert sse(X, X.copy(), np.arange(4)) == 0.0


def test_sse_matches_manual():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    C = np.array([[1.0, 0.0]])
    a = np.zeros(2, dtype=int)
    assert np.isclose(sse(X, C, a), 2.0)


@pytest.mark.parametrize("d", [1, 2, 57])
@pytest.mark.parametrize("n", [1, 300])
def test_sse_equals_x_minus_assigned_centre(d, n):
    """``sse`` subtracts X from the gathered centres; fl(c − x) = −fl(x − c),
    so the sum is that of ``X − C[assign]``, bit for bit, with clusters
    no point is assigned to."""
    rng = np.random.default_rng(d + n)
    X = rng.normal(scale=50.0, size=(n, d)) + 1e3
    C = rng.normal(scale=50.0, size=(12, d)) + 1e3
    assign = rng.choice([0, 3, 4, 11], size=n)
    diff = X - C[assign]
    assert sse(X, C, assign) == float(np.einsum("ij,ij->", diff, diff))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 30),
    d=st.integers(1, 6),
    k=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_full_dists_property(n, d, k, seed):
    rng = np.random.default_rng(seed)
    X, C = rng.normal(size=(n, d)), rng.normal(size=(k, d))
    assert np.allclose(full_dists(X, C), _brute(X, C), atol=1e-8)
