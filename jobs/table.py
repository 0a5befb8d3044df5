"""spark-submit entrypoint: regenerate one table of the reproduction.

    spark-submit jobs/table.py 6

Tables 2–5 run locally; only Table 6 starts a SparkSession, which it
passes to ``run_table6``.
"""
import argparse
import importlib
import sys

TABLES = (2, 3, 4, 5, 6)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("table", type=int, choices=TABLES)
    n = p.parse_args(argv).table
    run = getattr(importlib.import_module(f"repro.eval.table{n}"), f"run_table{n}")
    if n == 6:
        from pyspark.sql import SparkSession

        spark = SparkSession.builder.appName("table6").getOrCreate()
        try:
            out = run(spark=spark)
        finally:
            spark.stop()
    else:
        out = run()
    print(f"table{n}: {len(out['cells'] if isinstance(out, dict) else out)} rows/cells written to results/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
