"""``RunResult.seed_time`` reports the seeding layer of a run."""
import numpy as np

from repro.core.kernels import make_kernel
from repro.core.linalg import kmeans_pp_init
from repro.core.runner import LocalRunner
from repro.synth_data import gaussian_mixture


def test_seed_time_measures_kmeans_pp_and_is_zero_with_given_centres():
    X = gaussian_mixture(n=2000, d=3, n_centers=6, cluster_std=0.5, seed=11)
    seeded = LocalRunner().run(X, 20, make_kernel("lloyd"), n_iters=2, seed=5)
    assert seeded.seed_time > 0
    given = LocalRunner().run(
        X, 20, make_kernel("lloyd"), n_iters=2, centers0=kmeans_pp_init(X, 20, 5)
    )
    assert given.seed_time == 0
    assert np.array_equal(given.centers, seeded.centers)
