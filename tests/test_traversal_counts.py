"""Golden counts for the tree kernels.

Traversal order and node numbering are implementation choices: every
pruning decision of INDE, kdindex, UniK and Search is made per
root-to-node path, so the exact distance, node, data and bound counts
must not depend on them. The literals below were recorded with
node-at-a-time traversals (INDE and UniK on the stack-ordered tree
layout, kdindex and Search on the pre-order one); any change to how
nodes are numbered or visited has to reproduce them exactly.
"""
import numpy as np
import pytest

from repro.core.kernels import make_kernel
from repro.core.runner import LocalRunner
from repro.synth_data import gaussian_mixture
from repro.tune.features import extract_features

DATASETS = {  # the lowd/highd configs of test_kernels_exact.py
    "lowd": dict(n=2500, d=2, n_centers=20, cluster_std=0.4, seed=1),
    "highd": dict(n=1200, d=50, n_centers=10, cluster_std=2.0, uniform_frac=0.3, seed=3),
}

FIELDS = ("dist", "node_access", "data_access", "bound_access", "bound_update")

# (kernel, index or traversal, dataset, k) -> FIELDS after 8 iterations, seed 0;
# kdindex and search run with their defaults (no variant)
GOLDEN = {
    ("index", "balltree", "lowd", 8): (12972, 1000, 11735, 0, 0),
    ("index", "covertree", "lowd", 8): (5579, 754, 6199, 0, 0),
    ("unik", "adaptive", "lowd", 8): (12409, 985, 11888, 749, 733),
    ("unik", "index-single", "lowd", 8): (11364, 756, 12497, 2541, 829),
    ("unik", "index-multiple", "lowd", 8): (12498, 1000, 11755, 278, 719),
    ("index", "balltree", "lowd", 40): (88800, 2026, 71176, 0, 0),
    ("index", "covertree", "lowd", 40): (48814, 2557, 38740, 0, 0),
    ("unik", "adaptive", "lowd", 40): (89447, 1906, 68344, 6928, 3653),
    ("unik", "index-single", "lowd", 40): (77258, 1142, 68464, 35333, 3663),
    ("unik", "index-multiple", "lowd", 40): (91413, 2026, 68344, 2047, 3651),
    ("index", "balltree", "highd", 8): (75892, 1000, 70005, 0, 0),
    ("index", "covertree", "highd", 8): (63995, 1576, 53940, 0, 0),
    ("unik", "adaptive", "highd", 8): (75588, 944, 70005, 529, 474),
    ("unik", "index-single", "highd", 8): (72503, 608, 70005, 3582, 484),
    ("unik", "index-multiple", "highd", 8): (76076, 1000, 70005, 33, 474),
    ("index", "balltree", "highd", 40): (327733, 984, 290468, 0, 0),
    ("index", "covertree", "highd", 40): (196352, 1448, 150615, 0, 0),
    ("unik", "adaptive", "highd", 40): (189300, 264, 178693, 20056, 24956),
    ("unik", "index-single", "highd", 40): (189300, 264, 178693, 20056, 24956),
    ("unik", "index-multiple", "highd", 40): (208118, 984, 178693, 16296, 24956),
    ("kdindex", None, "lowd", 8): (18300, 2424, 2735, 0, 0),
    ("kdindex", None, "lowd", 40): (109224, 10580, 2954, 0, 0),
    ("kdindex", None, "highd", 8): (229398, 11420, 2097, 0, 0),
    ("kdindex", None, "highd", 40): (1075146, 13470, 1487, 0, 0),
    ("search", None, "lowd", 8): (44402, 2566, 44347, 0, 0),
    ("search", None, "lowd", 40): (394467, 10096, 381085, 0, 0),
    ("search", None, "highd", 8): (122608, 7748, 116733, 0, 0),
    ("search", None, "highd", 40): (543752, 38096, 500903, 0, 0),
}

# extract_features(lowd, k=40) with the default Ball-tree
GOLDEN_FEATURES = [
    2500.0, 40.0, 2.0, 1.09703737810346, 1.524, 1.536, 1.09703737810346, 0.0,
    0.054635139750628614, 0.06227867404221932, 0.03252173695031795,
    0.049373506439939534, 0.6510416666666666, 0.016634082731949284,
]


@pytest.fixture(scope="module")
def data():
    return {name: gaussian_mixture(**cfg) for name, cfg in DATASETS.items()}


@pytest.mark.parametrize(
    "key", list(GOLDEN), ids=lambda key: "-".join(str(p) for p in key if p is not None)
)
def test_counts_match_golden(data, key):
    name, variant, ds, k = key
    kw = {"index": {"index": variant}, "unik": {"traversal": variant}}.get(name, {})
    res = LocalRunner().run(data[ds], k, make_kernel(name, **kw), n_iters=8, seed=0)
    got = tuple(getattr(res.counters, f) for f in FIELDS)
    assert dict(zip(FIELDS, got)) == dict(zip(FIELDS, GOLDEN[key]))


def test_tree_features_unchanged(data):
    assert np.allclose(extract_features(data["lowd"], 40), GOLDEN_FEATURES)
