"""LocalRunner semantics: refinement, convergence, counters, timings."""
import importlib
import os
import sys
import tracemalloc
import zipfile
import zipimport

import numpy as np
import pytest

from repro.core.kernels import make_kernel
from repro.core.runner import (
    LocalRunner,
    _refine_increment,
    _refine_traditional,
    skip_unchanged_zip_rereads,
)
from repro.core.metrics import Counters
from repro.synth_data import gaussian_mixture


@pytest.fixture(scope="module")
def X():
    return gaussian_mixture(n=1500, d=5, n_centers=8, cluster_std=0.7, seed=4)


def test_sse_non_increasing(X):
    """Lloyd's SSE is monotone non-increasing across iterations."""
    r = LocalRunner()
    prev_sse = np.inf
    for t in range(1, 8):
        res = r.run(X, 10, make_kernel("lloyd"), n_iters=t, seed=0)
        assert res.sse <= prev_sse + 1e-6
        prev_sse = res.sse


def test_convergence_stops_early(X):
    res = LocalRunner().run(X, 4, make_kernel("lloyd"), n_iters=100, seed=0)
    assert res.iters_run < 100


def test_incremental_refinement_matches_full(X):
    """The sum-vector update with only moved points equals a recompute."""
    rng = np.random.default_rng(0)
    k = 6
    a_prev = rng.integers(0, k, len(X))
    a_new = a_prev.copy()
    flip = rng.choice(len(X), 200, replace=False)
    a_new[flip] = rng.integers(0, k, 200)
    sv = np.zeros((k, X.shape[1]))
    cnt = np.zeros(k)
    np.add.at(sv, a_prev, X)
    np.add.at(cnt, a_prev, 1)
    _refine_increment(X, a_prev, a_new, sv, cnt, Counters())
    sv_ref = np.zeros_like(sv)
    cnt_ref = np.zeros_like(cnt)
    np.add.at(sv_ref, a_new, X)
    np.add.at(cnt_ref, a_new, 1)
    assert np.allclose(sv, sv_ref)
    assert np.allclose(cnt, cnt_ref)


@pytest.mark.parametrize("n,d,k", [(1500, 5, 6), (400, 1, 3), (1, 1, 1), (50, 3, 200)])
def test_traditional_refine_is_add_at_bit_for_bit(n, d, k):
    """The per-column ``bincount`` sums equal ``np.add.at``'s bits, with
    empty clusters and k above the largest label."""
    rng = np.random.default_rng([n, d, k])
    Xr = rng.normal(scale=10.0 ** rng.integers(-3, 4, (1, d)), size=(n, d))
    a = rng.integers(0, max(1, k // 2), n)
    sv, cnt = np.full((k, d), np.nan), np.full(k, np.nan)
    c = Counters()
    _refine_traditional(Xr, a, sv, cnt, c)
    sv_ref, cnt_ref = np.zeros((k, d)), np.zeros(k)
    np.add.at(sv_ref, a, Xr)
    np.add.at(cnt_ref, a, 1)
    assert np.array_equal(sv, sv_ref) and np.array_equal(cnt, cnt_ref)
    assert c.data_access == n


def test_first_refine_increment_is_traditional(X):
    """From an all −1 previous assignment both refinements give the same
    (k, d+1) array and the same data access."""
    k = 9
    a_new = np.random.default_rng(3).integers(0, k - 1, len(X))
    a_prev = np.full(len(X), -1)
    accs, cs = [np.zeros((k, X.shape[1] + 1)) for _ in range(2)], [Counters(), Counters()]
    _refine_increment(X, a_prev, a_new, accs[0][:, :-1], accs[0][:, -1], cs[0])
    _refine_traditional(X, a_new, accs[1][:, :-1], accs[1][:, -1], cs[1])
    assert np.array_equal(accs[0], accs[1])
    assert cs[0].data_access == cs[1].data_access == len(X)


def test_lloyd_never_builds_an_n_by_k_grid():
    """Lloyd's scan and refinement stay far below one n×k float64 grid."""
    n, k = 20_000, 100
    Xg = gaussian_mixture(n=n, d=2, n_centers=20, cluster_std=0.5, seed=2)
    centers0 = Xg[:k].copy()
    tracemalloc.start()
    try:
        LocalRunner().run(Xg, k, make_kernel("lloyd"), n_iters=3, centers0=centers0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * k * 8


def test_refine_counts_only_moved(X):
    c = Counters()
    a = np.zeros(len(X), dtype=np.int64)
    b = a.copy()
    b[:10] = 1
    sv = np.zeros((2, X.shape[1]))
    cnt = np.zeros(2)
    np.add.at(sv, a, X)
    np.add.at(cnt, a, 1)
    _refine_increment(X, a, b, sv, cnt, c)
    assert c.data_access == 10


def test_traditional_and_incremental_refine_agree(X):
    """Lloyd (traditional refinement) and Hamerly (incremental) must
    produce identical centroids — the refinement styles are equivalent."""
    r = LocalRunner()
    a = r.run(X, 7, make_kernel("lloyd"), n_iters=6, seed=5)
    b = r.run(X, 7, make_kernel("hame"), n_iters=6, seed=5)
    assert np.allclose(a.centers, b.centers)
    # but Lloyd re-reads every point each refinement
    assert a.counters.data_access > b.counters.data_access


def test_empty_cluster_keeps_centroid(X):
    """A centroid with no members keeps its position (no NaNs)."""
    far = np.full((1, X.shape[1]), 1e6)
    centers0 = np.vstack([X[:3], far])
    res = LocalRunner().run(X, 4, make_kernel("lloyd"), n_iters=3, centers0=centers0)
    assert np.isfinite(res.centers).all()
    assert np.allclose(res.centers[3], far[0])


def test_fixed_centers0_reproducible(X):
    r = LocalRunner()
    c0 = X[:5].copy()
    a = r.run(X, 5, make_kernel("lloyd"), n_iters=5, centers0=c0)
    b = r.run(X, 5, make_kernel("hame"), n_iters=5, centers0=c0)
    assert np.allclose(a.centers, b.centers)


def test_counters_populated(X):
    res = LocalRunner().run(X, 8, make_kernel("yinyang"), n_iters=5, seed=1)
    c = res.counters
    assert c.dist > 0 and c.bound_access > 0 and c.bound_update > 0
    assert c.assign_time > 0 and c.refine_time >= 0
    assert c.footprint_bytes > 0
    assert len(res.assign_times) == res.iters_run
    assert res.total_time >= c.assign_time


def test_lloyd_distance_count_exact(X):
    k, iters = 7, 4
    res = LocalRunner().run(X, k, make_kernel("lloyd"), n_iters=iters, seed=0)
    assert res.counters.dist == len(X) * k * res.iters_run


def test_pruned_fraction_range(X):
    res = LocalRunner().run(X, 10, make_kernel("hame"), n_iters=6, seed=0)
    p = res.counters.pruned_fraction(len(X), 10, res.iters_run)
    assert 0.0 < p < 1.0


def test_work_units_monotone_in_dist():
    a = Counters(dist=100)
    b = Counters(dist=200)
    assert b.work_units(8) > a.work_units(8)


def test_counters_add():
    a = Counters(dist=1, bound_access=2, footprint_bytes=10)
    b = Counters(dist=3, bound_access=4, footprint_bytes=7)
    c = a + b
    assert c.dist == 4 and c.bound_access == 6
    assert c.footprint_bytes == 10  # gauge: max, not sum


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="zipimport re-reads lazily from 3.13 on")
def test_zip_rereads_only_changed_archives(tmp_path, monkeypatch):
    """After the swap, ``importlib.invalidate_caches()`` re-reads a zip
    archive's directory only when the archive changed; a deleted archive
    is handled as before, and a second call of the helper wraps nothing."""
    name, archive = "zip_reread_probe", tmp_path / "probe.zip"
    path = str(archive)

    def write(value):
        with zipfile.ZipFile(archive, "w") as z:
            z.writestr(f"{name}.py", f"VALUE = {value}\n")

    reads = []
    stock_read = zipimport._read_directory
    monkeypatch.setattr(zipimport, "_read_directory", lambda p: reads.append(p) or stock_read(p))
    monkeypatch.setattr(zipimport.zipimporter, "invalidate_caches",
                        zipimport.zipimporter.invalidate_caches)
    write(1)
    monkeypatch.syspath_prepend(path)

    def n_reads():
        start = len(reads)
        importlib.invalidate_caches()
        return reads[start:].count(path)

    skip_unchanged_zip_rereads()
    patched = zipimport.zipimporter.invalidate_caches
    skip_unchanged_zip_rereads()
    assert zipimport.zipimporter.invalidate_caches is patched
    try:
        assert importlib.import_module(name).VALUE == 1
        assert n_reads() == 1  # an importer's first call after the swap reads
        assert [n_reads() for _ in range(3)] == [0, 0, 0]

        st = os.stat(archive)
        write(2)  # same size: only the mtime tells
        os.utime(archive, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        assert n_reads() == 1
        assert n_reads() == 0
        del sys.modules[name]
        assert importlib.import_module(name).VALUE == 2

        archive.unlink()
        assert [n_reads() for _ in range(2)] == [1, 1]  # read on every call, as before
        assert sys.path_importer_cache[path]._files == {}
    finally:
        sys.modules.pop(name, None)
        sys.path_importer_cache.pop(path, None)
