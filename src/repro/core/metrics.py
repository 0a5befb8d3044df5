"""Performance counters shared by every kernel.

The paper's fine-grained breakdown (§5, Table 3, Figures 10–11) tracks,
besides wall time, the number of distance computations, point (data)
accesses, bound accesses, bound updates, and index-node accesses. Every
kernel increments these on the exact events the paper counts:

* ``dist``          — one point↔centroid (or pivot↔centroid) distance.
* ``data_access``   — one read of a stored data-point vector.
* ``bound_access``  — one read of a stored lb/ub entry.
* ``bound_update``  — one write of a stored lb/ub entry.
* ``node_access``   — one visit of an index node.

Counters are plain ints so they pickle cheaply through Spark and merge
with ``+``.
"""
from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class Counters:
    """Additive event counters plus phase wall-times (seconds)."""

    dist: int = 0
    data_access: int = 0
    bound_access: int = 0
    bound_update: int = 0
    node_access: int = 0
    assign_time: float = 0.0
    refine_time: float = 0.0
    footprint_bytes: int = 0

    def __add__(self, other: "Counters") -> "Counters":
        merged = {f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        # Footprint is a gauge, not a flow: take the max when merging
        # partitions so the reported value is peak state size.
        merged["footprint_bytes"] = max(self.footprint_bytes, other.footprint_bytes)
        return Counters(**merged)

    def work_units(self, d: int) -> float:
        """Scalar-execution cost model (see EXPERIMENTS.md § Timing).

        The paper's times come from scalar Java where one distance costs
        ~d multiply-adds and one bound access/update ~1 op. Our numpy/
        BLAS runtime distorts those constants (a full n×k distance grid
        runs at GEMM speed), so speedups are additionally reported under
        the paper's own cost accounting:

            work = dist·d + data_access·2 + bound_access + bound_update
                   + node_access·4
        """
        return (
            self.dist * d
            + self.data_access * 2
            + self.bound_access
            + self.bound_update
            + self.node_access * 4
        )

    def pruned_fraction(self, n: int, k: int, iters: int) -> float:
        """Fraction of the n·k·iters Lloyd distance grid that was avoided."""
        full = n * k * max(1, iters)
        return max(0.0, 1.0 - self.dist / full)
