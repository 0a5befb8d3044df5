"""Golden counts for the sequential bound kernels.

How a kernel evaluates its candidate distances (pair by pair, in dense
rows, in blocks, grouped by segment) is an implementation choice: the
counters charge the pairs the algorithm asks for, so the distance, data
and bound counts must not depend on it. The literals below were recorded
with the dense m×k Yinyang step and the one-shot ``pair_dists`` gather;
any change to how these kernels compute distances has to reproduce them
exactly.
"""
import pytest

from repro.core.kernels import make_kernel
from repro.core.runner import LocalRunner
from repro.synth_data import gaussian_mixture

DATASETS = {  # the lowd/highd configs of test_traversal_counts.py
    "lowd": dict(n=2500, d=2, n_centers=20, cluster_std=0.4, seed=1),
    "highd": dict(n=1200, d=50, n_centers=10, cluster_std=2.0, uniform_frac=0.3, seed=3),
}

FIELDS = ("dist", "node_access", "data_access", "bound_access", "bound_update")

# (kernel, dataset, k) -> FIELDS after 8 iterations, seed 0
GOLDEN = {
    ("yinyang", "lowd", 8): (51950, 0, 54677, 88272, 68721),
    ("yinyang", "lowd", 40): (155354, 0, 158148, 438940, 164034),
    ("yinyang", "highd", 8): (46446, 0, 48535, 75824, 49026),
    ("yinyang", "highd", 40): (132958, 0, 134285, 356440, 103386),
    ("regroup", "lowd", 8): (52006, 0, 54677, 88272, 68721),
    ("regroup", "lowd", 40): (156474, 0, 158148, 438940, 164034),
    ("regroup", "highd", 8): (46502, 0, 48535, 75824, 49026),
    ("regroup", "highd", 40): (149523, 0, 149730, 265160, 173880),
    ("hame", "lowd", 8): (32445, 0, 34956, 38221, 45471),
    ("hame", "lowd", 40): (249235, 0, 245949, 41555, 53377),
    ("hame", "highd", 8): (55821, 0, 57694, 22637, 35077),
    ("hame", "highd", 40): (225275, 0, 220522, 21515, 32231),
    ("elka", "lowd", 8): (22997, 0, 25508, 93204, 185436),
    ("elka", "lowd", 40): (111536, 0, 108250, 644140, 830251),
    ("elka", "highd", 8): (29734, 0, 31607, 112720, 114354),
    ("elka", "highd", 40): (75157, 0, 70404, 381640, 418921),
    ("drak", "lowd", 8): (25900, 0, 28635, 71005, 86905),
    ("drak", "lowd", 40): (121550, 0, 124504, 211555, 263105),
    ("drak", "highd", 8): (65578, 0, 67675, 38953, 66163),
    ("drak", "highd", 40): (182348, 0, 183835, 104200, 160108),
    ("pami20", "lowd", 8): (58747, 0, 61258, 0, 0),
    ("pami20", "lowd", 40): (166821, 0, 163535, 0, 0),
    ("pami20", "highd", 8): (67041, 0, 68914, 0, 0),
    ("pami20", "highd", 40): (215037, 0, 210284, 0, 0),
}


@pytest.fixture(scope="module")
def data():
    return {name: gaussian_mixture(**cfg) for name, cfg in DATASETS.items()}


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda key: "-".join(map(str, key)))
def test_counts_match_golden(data, key):
    name, ds, k = key
    res = LocalRunner().run(data[ds], k, make_kernel(name), n_iters=8, seed=0)
    got = tuple(getattr(res.counters, f) for f in FIELDS)
    assert dict(zip(FIELDS, got)) == dict(zip(FIELDS, GOLDEN[key]))
