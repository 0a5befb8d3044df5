"""Table 2 — dataset overview: Ball-tree construction time and #nodes.

Next to the Ball-tree (capacity 30, §7.2.1), the kd-tree (capacity 1,
as the filtering algorithm uses it) and HKT builds are timed too, so
every index build has a standing measurement. Each time is the median of
``BUILD_REPEATS`` builds.
"""
from __future__ import annotations

import statistics
import time

from ..data.datasets import SPECS
from ..index import build_balltree, build_hkt, build_kdtree
from .common import render_markdown, write_result

#: Builds per tree and dataset; the reported time is their median, since
#: a single build's time moves by up to 1.6× between runs of the same code.
BUILD_REPEATS = 3

PAPER_TABLE2 = {  # name -> (n, d, build_seconds, nodes)
    "BigCross": (1_160_000, 57, 10.8, 183_000),
    "Conflong": (165_000, 3, 0.26, 21_800),
    "Covtype": (581_000, 55, 3.87, 88_300),
    "Europe": (169_000, 2, 0.27, 11_200),
    "KeggDirect": (53_400, 24, 0.17, 2_800),
    "KeggUndirect": (65_500, 29, 0.31, 4_500),
    "NYC": (3_500_000, 2, 8.7, 228_000),
    "Skin": (245_000, 4, 0.33, 21_200),
    "Power": (2_070_000, 9, 4.3, 43_700),
    "Road": (434_000, 4, 0.55, 6_900),
    "Census": (2_450_000, 68, 204.0, 135_000),
    "Mnist": (60_000, 784, 4.8, 7_300),
}


def _timed(build, X):
    times = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        out = build(X)
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times)


def run_table2(write: bool = True) -> list[dict]:
    rows = []
    for name, spec in SPECS.items():
        X = spec.load()
        tree, dt = _timed(build_balltree, X)
        _, kd_dt = _timed(build_kdtree, X)
        _, hkt_dt = _timed(build_hkt, X)
        pn, pd, pt, pnodes = PAPER_TABLE2[name]
        rows.append(
            {
                "dataset": name,
                "n": spec.n,
                "d": spec.d,
                "build_s": dt,
                "nodes": tree.n_nodes,
                "paper_n": pn,
                "paper_build_s": pt,
                "paper_nodes": pnodes,
                # Scale-invariant comparables: nodes per point, build μs/point.
                "nodes_per_point": tree.n_nodes / spec.n,
                "paper_nodes_per_point": pnodes / pn,
                "build_us_per_point": dt / spec.n * 1e6,
                "paper_build_us_per_point": pt / pn * 1e6,
                "kd_build_s": kd_dt,
                "hkt_build_s": hkt_dt,
            }
        )
    if write:
        headers = [
            "dataset", "n", "d", "build_s", "nodes",
            "nodes/pt", "paper nodes/pt", "build μs/pt", "paper μs/pt",
            "kd build_s", "HKT build_s",
        ]
        md_rows = [
            [r["dataset"], r["n"], r["d"], r["build_s"], r["nodes"],
             r["nodes_per_point"], r["paper_nodes_per_point"],
             r["build_us_per_point"], r["paper_build_us_per_point"],
             r["kd_build_s"], r["hkt_build_s"]]
            for r in rows
        ]
        write_result("table2.md", render_markdown(headers, md_rows))
    return rows
