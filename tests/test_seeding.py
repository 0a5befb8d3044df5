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

from repro.core import linalg
from repro.core.linalg import DRAW_ROWS, _draw, kmeans_pp_init


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


def _data(kind: str, d: int, n: int = N) -> np.ndarray:
    rng = np.random.default_rng(100 + d)
    blobs = rng.normal(scale=8.0, size=(6, d))
    X = blobs[rng.integers(6, size=n)] + rng.normal(size=(n, d))
    if kind == "clustered":
        return X
    if kind == "duplicates":
        return X[rng.integers(10, size=n)]
    if kind == "identical":
        return np.repeat(X[:1], n, axis=0)
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


# ``kmeans_pp_init`` locates each draw from sums over blocks of
# ``DRAW_ROWS`` rows; the inputs above fit in one block.
MULTI_BLOCK_N = [DRAW_ROWS - 1, DRAW_ROWS, DRAW_ROWS + 1, 2 * DRAW_ROWS + 1, 5000]


@pytest.mark.parametrize("kind", ["clustered", "duplicates", "identical", "offset"])
@pytest.mark.parametrize("n", MULTI_BLOCK_N)
def test_multi_block_centres_bit_identical_to_reference(kind, n):
    X = _data(kind, 2, n)
    for k in (1, 2, 100, n):
        got = kmeans_pp_init(X, k, n)
        ref = _reference_kmeans_pp(X, k, n)
        assert np.array_equal(got, ref), (kind, n, k)


def _straddling_runs(n: int, d: int) -> np.ndarray:
    """Runs of one repeated point across every block edge: once that point
    is a centre, its run has zero weight on both sides of the edge."""
    rng = np.random.default_rng(7 + d)
    X = rng.normal(scale=4.0, size=(n, d))
    for i, edge in enumerate(range(DRAW_ROWS, n, DRAW_ROWS)):
        X[edge - 3 - 40 * i : edge + 5 + 60 * i] = X[edge]
    X[: DRAW_ROWS + 17] = X[0]  # the first block holds one point only
    return X


@pytest.mark.parametrize("d", [1, 2, 57])
def test_zero_weight_runs_across_block_edges(d):
    X = _straddling_runs(3 * DRAW_ROWS + 100, d)
    for seed in range(2):
        for k in (2, 30, 120):
            got = kmeans_pp_init(X, k, seed)
            assert np.array_equal(got, _reference_kmeans_pp(X, k, seed)), (d, seed, k)


def _weights(n: int, seed: int) -> np.ndarray:
    """Squared distances with zero runs across block edges and a wide range."""
    rng = np.random.default_rng(seed)
    d2 = rng.random(n) ** 6 * 10.0 ** rng.integers(-3, 4, size=n)
    for edge in range(DRAW_ROWS, n, DRAW_ROWS):
        d2[edge - 50 : edge + 30] = 0.0
    d2[: min(7, n - 1)] = 0.0
    return d2


@pytest.fixture
def fallbacks(monkeypatch):
    """The draws ``_draw`` hands to its full-cumsum step, counted."""
    calls = []
    full = linalg._choice_index

    def counted(d2, total, u):
        calls.append(u)
        return full(d2, total, u)

    monkeypatch.setattr(linalg, "_choice_index", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, DRAW_ROWS, DRAW_ROWS + 1, 3 * DRAW_ROWS + 7])
def test_draw_at_cdf_steps_is_searchsorted(n, fallbacks):
    """A uniform on, or one float either side of, an entry of ``rng.choice``'s
    cdf leaves the block sums no margin, so ``_draw`` takes its full-cumsum
    step there; each index must still be the cdf's ``searchsorted``."""
    rng = np.random.default_rng(n)
    for seed in range(3):
        d2 = _weights(n, seed)
        total = d2.sum()
        cdf = np.cumsum(d2 / total)
        cdf /= cdf[-1]
        picks = np.unique(np.r_[0, n - 1, np.flatnonzero(d2 > 0)[:1], rng.integers(n, size=64)])
        us = [0.0, np.nextafter(1.0, 0.0)]
        for i in picks:
            us += [cdf[i], np.nextafter(cdf[i], np.inf), np.nextafter(cdf[i], -np.inf)]
        for u in us:
            if 0.0 <= u < 1.0:
                assert _draw(d2, total, u) == cdf.searchsorted(u, side="right"), (n, seed, u)
    assert fallbacks


def test_draw_is_rng_choice_on_random_uniforms(fallbacks):
    """Off the cdf's steps the block sums decide: no draw falls back."""
    for seed in range(4):
        d2 = _weights(5000, seed)
        total = d2.sum()
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(300):
            assert _draw(d2, total, a.random()) == b.choice(len(d2), p=d2 / total)
    assert fallbacks == []
