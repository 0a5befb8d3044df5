"""eval.common measurement/rendering plumbing + job entrypoint imports."""
import importlib.util
import os

import numpy as np
import pytest

from repro.core.kernels import make_kernel
from repro.eval.common import Measured, get_runner, measure, render_markdown, write_result
from repro.synth_data import gaussian_mixture


@pytest.fixture(scope="module")
def X():
    return gaussian_mixture(n=800, d=4, n_centers=6, cluster_std=0.6, seed=8)


def test_measure_averages_over_seeds(X):
    m = measure(X, 6, lambda: make_kernel("lloyd"), seeds=(0, 1), n_iters=4)
    assert isinstance(m, Measured)
    assert m.algo_time > 0
    assert m.n == 800 and m.k == 6
    assert m.pruned == pytest.approx(0.0, abs=1e-9)


def test_measure_counter_scaling(X):
    m1 = measure(X, 5, lambda: make_kernel("lloyd"), seeds=(0,), n_iters=3)
    m2 = measure(X, 5, lambda: make_kernel("lloyd"), seeds=(0, 0), n_iters=3)
    # per-run averages: duplicated seed must not double the counters
    assert m1.counters.dist == m2.counters.dist


def test_get_runner_local_default():
    from repro.core.runner import LocalRunner

    assert isinstance(get_runner(None), LocalRunner)


def test_render_markdown_table():
    text = render_markdown(["a", "b"], [[1, 2.5], ["x", 0.001]])
    lines = text.splitlines()
    assert lines[0] == "| a | b |"
    assert len(lines) == 4
    assert "2.50" in lines[2]


def test_write_result_roundtrip(tmp_path, monkeypatch):
    import repro.eval.common as common

    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    p = common.write_result("t.md", "hello")
    assert open(p).read() == "hello\n"


@pytest.mark.parametrize(
    "job", ["run_kmeans", "table2", "table3", "table4", "table5", "table6"]
)
def test_job_entrypoints_importable(job):
    # Every table has its entry in jobs/table.py, selected by number.
    table = job.removeprefix("table")
    name = "table" if table.isdigit() else job
    path = os.path.join(os.path.dirname(__file__), "..", "jobs", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"job_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # must import without starting Spark
    assert hasattr(mod, "main")
    if table.isdigit():
        assert int(table) in mod.TABLES
