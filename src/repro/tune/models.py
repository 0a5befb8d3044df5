"""From-scratch classifiers for UTune (§6.2, Table 5).

The paper trains scikit-learn models (DT, RF, SVM, kNN, Ridge) plus the
rule-based BDT of Figure 5. scikit-learn is unavailable offline, so the
same model families are implemented here in numpy: CART decision tree,
bagged random forest, one-vs-rest linear SVM (hinge subgradient), kNN
and a one-hot ridge classifier. All share ``fit(X, y)`` / ``predict(X)``
with integer class labels.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.linalg import full_dists


class _Standardizer:
    def fit(self, X):
        self.mu = X.mean(0)
        self.sd = X.std(0)
        self.sd[self.sd == 0] = 1.0
        return self

    def transform(self, X):
        return (X - self.mu) / self.sd


# ---------------------------------------------------------------------------
# CART decision tree


@dataclass
class _Node:
    feature: int = -1
    thresh: float = 0.0
    left: "._Node | None" = None
    right: "._Node | None" = None
    label: int = -1


def _gini(counts: np.ndarray) -> float:
    tot = counts.sum()
    if tot == 0:
        return 0.0
    p = counts / tot
    return 1.0 - float((p * p).sum())


class DecisionTree:
    """CART with gini impurity; depth 10 as in §7.3.1."""

    def __init__(self, max_depth: int = 10, min_samples: int = 2, rng=None,
                 max_features: int | None = None):
        self.max_depth = max_depth
        self.min_samples = min_samples
        self.rng = rng or np.random.default_rng(0)
        self.max_features = max_features

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        self.classes_ = np.unique(y)
        self.n_classes = int(self.classes_.max()) + 1
        self.root = self._build(np.asarray(X, dtype=np.float64), np.asarray(y), 0)
        return self

    def _leaf(self, y) -> _Node:
        counts = np.bincount(y, minlength=self.n_classes)
        return _Node(label=int(counts.argmax()))

    def _build(self, X, y, depth) -> _Node:
        if depth >= self.max_depth or len(y) < self.min_samples or len(np.unique(y)) == 1:
            return self._leaf(y)
        n, p = X.shape
        feats = np.arange(p)
        if self.max_features is not None and self.max_features < p:
            feats = self.rng.choice(p, size=self.max_features, replace=False)
        best = (np.inf, -1, 0.0)
        parent_counts = np.bincount(y, minlength=self.n_classes)
        for f in feats:
            order = np.argsort(X[:, f], kind="stable")
            xs, ys = X[order, f], y[order]
            left = np.zeros(self.n_classes)
            right = parent_counts.astype(np.float64).copy()
            for i in range(n - 1):
                left[ys[i]] += 1
                right[ys[i]] -= 1
                if xs[i + 1] <= xs[i]:
                    continue
                nl, nr = i + 1, n - i - 1
                score = (nl * _gini(left) + nr * _gini(right)) / n
                if score < best[0]:
                    best = (score, f, 0.5 * (xs[i] + xs[i + 1]))
        if best[1] < 0:
            return self._leaf(y)
        _, f, t = best
        m = X[:, f] <= t
        if not m.any() or m.all():
            return self._leaf(y)
        node = _Node(feature=int(f), thresh=float(t))
        node.left = self._build(X[m], y[m], depth + 1)
        node.right = self._build(X[~m], y[~m], depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.int64)
        for i, x in enumerate(X):
            node = self.root
            while node.feature >= 0:
                node = node.left if x[node.feature] <= node.thresh else node.right
            out[i] = node.label
        return out


class RandomForest:
    """Bagged CART forest with sqrt-feature subsampling."""

    def __init__(self, n_trees: int = 20, max_depth: int = 10, seed: int = 0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed

    def fit(self, X, y):
        rng = np.random.default_rng(self.seed)
        X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
        self.n_classes = int(y.max()) + 1
        mf = max(1, int(np.sqrt(X.shape[1])))
        self.trees = []
        for _ in range(self.n_trees):
            idx = rng.integers(len(y), size=len(y))
            t = DecisionTree(self.max_depth, rng=rng, max_features=mf)
            t.n_classes = self.n_classes
            t.classes_ = np.arange(self.n_classes)
            t.root = t._build(X[idx], y[idx], 0)
            self.trees.append(t)
        return self

    def predict(self, X):
        votes = np.zeros((len(X), self.n_classes))
        for t in self.trees:
            p = t.predict(X)
            votes[np.arange(len(X)), p] += 1
        return votes.argmax(1)


class KNN:
    """k-nearest-neighbour vote over standardized features."""

    def __init__(self, k: int = 5):
        self.k = k

    def fit(self, X, y):
        self.std = _Standardizer().fit(np.asarray(X, dtype=np.float64))
        self.X = self.std.transform(np.asarray(X, dtype=np.float64))
        self.y = np.asarray(y)
        self.n_classes = int(self.y.max()) + 1
        return self

    def predict(self, X):
        Q = self.std.transform(np.asarray(X, dtype=np.float64))
        D = full_dists(Q, self.X)
        kk = min(self.k, len(self.y))
        nn = np.argpartition(D, kk - 1, axis=1)[:, :kk]
        out = np.empty(len(Q), dtype=np.int64)
        for i in range(len(Q)):
            out[i] = np.bincount(self.y[nn[i]], minlength=self.n_classes).argmax()
        return out


class RidgeClassifier:
    """One-hot ridge regression, closed form (the paper's RC)."""

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.std = _Standardizer().fit(X)
        Xs = np.hstack([self.std.transform(X), np.ones((len(X), 1))])
        self.n_classes = int(y.max()) + 1
        Y = np.zeros((len(y), self.n_classes))
        Y[np.arange(len(y)), y] = 1.0
        A = Xs.T @ Xs + self.alpha * np.eye(Xs.shape[1])
        self.W = np.linalg.solve(A, Xs.T @ Y)
        return self

    def predict(self, X):
        Xs = np.hstack([
            self.std.transform(np.asarray(X, dtype=np.float64)),
            np.ones((len(X), 1)),
        ])
        return (Xs @ self.W).argmax(1)


class LinearSVM:
    """One-vs-rest linear SVM via hinge-loss subgradient descent."""

    def __init__(self, epochs: int = 300, lr: float = 0.1, C: float = 1.0, seed: int = 0):
        self.epochs = epochs
        self.lr = lr
        self.C = C
        self.seed = seed

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.std = _Standardizer().fit(X)
        Xs = np.hstack([self.std.transform(X), np.ones((len(X), 1))])
        self.n_classes = int(y.max()) + 1
        n, p = Xs.shape
        self.W = np.zeros((self.n_classes, p))
        for c in range(self.n_classes):
            t = np.where(y == c, 1.0, -1.0)
            w = np.zeros(p)
            for ep in range(1, self.epochs + 1):
                lr = self.lr / np.sqrt(ep)
                margins = t * (Xs @ w)
                viol = margins < 1
                grad = w / n - self.C * (t[viol, None] * Xs[viol]).sum(0) / n
                w -= lr * grad
            self.W[c] = w
        return self

    def predict(self, X):
        Xs = np.hstack([
            self.std.transform(np.asarray(X, dtype=np.float64)),
            np.ones((len(X), 1)),
        ])
        return (Xs @ self.W.T).argmax(1)


class BDT:
    """Figure-5 rule-based basic decision tree.

    Encodes the literature's folk rules (§6): index-based methods for
    low-dimensional data; for high-d, Yinyang when k is large, Hamerly
    otherwise. The label encoding is supplied at fit time so BDT can
    emit labels from the same class space as the learned models.
    """

    def __init__(self, kind: str, label_of: dict[str, int]):
        assert kind in ("bound", "index")
        self.kind = kind
        self.label_of = label_of

    def fit(self, X, y):  # rules are fixed; fit is a no-op
        return self

    def predict(self, X):
        # Feature layout (features.FEATURE_NAMES): [n, k, d, ...].
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.int64)
        for i, row in enumerate(X):
            _, k, d = row[0], row[1], row[2]
            if self.kind == "index":
                out[i] = self.label_of["pure"] if d <= 20 else self.label_of["none"]
            else:
                out[i] = self.label_of["yinyang"] if k >= 50 else self.label_of["hame"]
        return out


MODEL_FACTORIES = {
    "DT": lambda: DecisionTree(max_depth=10),
    "RF": lambda: RandomForest(n_trees=20),
    "SVM": lambda: LinearSVM(),
    "kNN": lambda: KNN(k=5),
    "RC": lambda: RidgeClassifier(),
}
