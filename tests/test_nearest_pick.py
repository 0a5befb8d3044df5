"""The shared nearest-centroid picks agree with a per-row Python loop.

``top2``, ``segment_min`` and ``segment_top2`` are how every kernel picks
its centroid and runner-up, and ``nearer`` is how it settles a candidate
against the assigned one, so they carry Lloyd's tie rule: among equal
values the lowest centroid id wins.
"""
import numpy as np
import pytest

from repro.core.kernels.base import nearer, segment_min, segment_top2, top2


def _loop_top2(pairs):
    """(d1, c1, d2, c2) of a list of (value, col), lowest col on ties."""
    ranked = sorted(pairs)
    d1, c1 = ranked[0] if ranked else (np.inf, -1)
    d2, c2 = ranked[1] if len(ranked) > 1 else (np.inf, -1)
    return d1, c1, d2, c2


def _ragged(seed):
    """Rows with 0..6 pairs of distinct, unsorted cols and many equal values,
    grouped by row."""
    rng = np.random.default_rng(seed)
    n, k = 40, 9
    per_row = [rng.permutation(k)[: rng.integers(0, 7)] for _ in range(n)]
    per_row[0] = np.array([], dtype=np.int64)       # empty row
    per_row[1] = np.array([5])                      # one-value row
    per_row[2] = np.array([7, 3, 5])                # ties below
    seg = np.repeat(np.arange(n), [len(c) for c in per_row])
    cols = np.concatenate(per_row).astype(np.int64)
    vals = rng.integers(0, 3, len(cols)).astype(float)
    vals[seg == 2] = 1.0
    return vals, cols, seg, n


@pytest.mark.parametrize("seed", range(4))
def test_segment_picks_match_loop(seed):
    vals, cols, seg, n = _ragged(seed)
    d1, c1 = segment_min(vals, cols, seg, n)
    t1, a1, t2, a2 = segment_top2(vals, cols, seg, n)
    for r in range(n):
        want = _loop_top2([(vals[i], cols[i]) for i in np.flatnonzero(seg == r)])
        assert (d1[r], c1[r]) == want[:2]
        assert (t1[r], a1[r], t2[r], a2[r]) == want
    assert (d1[0], c1[0], t2[1], a2[1]) == (np.inf, -1, np.inf, -1)
    assert (c1[2], a2[2]) == (3, 5)


def test_segment_picks_without_pairs():
    empty = np.empty(0)
    d, c = segment_min(empty, empty.astype(np.int64), empty.astype(np.int64), 3)
    assert np.isinf(d).all() and (c == -1).all()


@pytest.mark.parametrize("k", [1, 2, 6])
def test_top2_matches_loop_and_leaves_input(k):
    rng = np.random.default_rng(k)
    D = rng.integers(0, 3, (50, k)).astype(float)
    before = D.copy()
    a, d1, d2, arg2 = top2(D)
    assert np.array_equal(D, before)
    for r in range(len(D)):
        want = _loop_top2([(D[r, j], j) for j in range(k)])
        assert (d1[r], a[r], d2[r]) == want[:3]
        if k > 1:
            assert arg2[r] == want[3]
    assert (a == D.argmin(1)).all()


def test_nearer_breaks_ties_toward_lower_id():
    inf = np.inf
    d = np.array([1.0, 1.0, 2.0, 1.0, inf, inf, 3.0, inf])
    j = np.array([2, 5, 0, 4, -1, 7, 9, -1])
    d_ref = np.array([1.0, 1.0, 1.0, 2.0, inf, inf, inf, 3.0])
    j_ref = np.array([5, 2, 3, 0, 7, -1, -1, 9])
    want = np.array([True, False, False, True, True, False, True, False])
    assert np.array_equal(nearer(d, j, d_ref, j_ref), want)
    # Swapping the arguments flips every decision: no pair is nearer both ways.
    assert np.array_equal(nearer(d_ref, j_ref, d, j), ~want)
    # The same centroid at the same distance is not nearer.
    assert not nearer(np.array([1.0]), np.array([3]), np.array([1.0]), np.array([3]))[0]
    # A scalar reference id, as Pami20 passes its cluster's id.
    assert np.array_equal(nearer(np.array([1.0, 1.0]), np.array([2, 4]), np.array([1.0, 1.0]), 3),
                          [True, False])
