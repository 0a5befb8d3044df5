"""Run one workload of the k-means benchmark and print its metrics.

    python3 perfbench/run.py --workload local-nyc-k100 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
measures an untraced and a traced pass and reports the per-layer
metrics. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: One BLAS thread per Python process: the local runs are the paper's
#: single-threaded baseline, and Spark's P workers × 1 thread fit in the
#: machine's cores. Set before numpy loads; the JVM and its Python
#: workers inherit them.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out" / str(os.getpid())
    (out_dir / "tmp").mkdir(parents=True)
    os.environ.update(THREADS)
    os.environ["TMPDIR"] = str(out_dir / "tmp")
    paths = [str(ROOT / "src"), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])
    sys.path[:0] = paths[:1]
    try:
        import bench

        result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               str(out_dir), spec)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
