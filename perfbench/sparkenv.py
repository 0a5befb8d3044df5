"""The benchmark's own Spark session, its empty-job floor and its event log.

Everything Spark writes (local dir, JVM temp files, event log) goes under
the run's output directory. ``stop`` ends the session, closes the gateway
and waits for the JVM to exit, which also ends the Python workers.
"""
from __future__ import annotations

import json
import os
import shlex
import statistics
import time
from collections import defaultdict

P = 4  # partitions, and the local[P] task slots that run them


def start(out_dir: str, event_log: bool):
    """A local[P] session; with ``event_log`` Spark logs every job, task and block."""
    tmp = os.path.join(out_dir, "jvm-tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{P}] --driver-memory 1g "
        f"--driver-java-options {shlex.quote('-Djava.io.tmpdir=' + tmp)} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", os.path.join(out_dir, "spark-local"))
        .config("spark.sql.warehouse.dir", os.path.join(out_dir, "warehouse"))
    )
    if event_log:
        log_dir = os.path.join(out_dir, "eventlog")
        os.makedirs(log_dir, exist_ok=True)
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", "file://" + log_dir)
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
            .config("spark.eventLog.logBlockUpdates.enabled", "true")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        proc = gateway.proc
        gateway.shutdown()
        proc.stdin.close()  # the JVM exits on EOF from its parent
        proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None


def wait_exited(pids) -> None:
    """Wait up to a minute until none of ``pids`` (the session's Python workers) is alive."""
    deadline = time.monotonic() + 60
    while any(os.path.exists(f"/proc/{pid}") for pid in pids):
        if time.monotonic() > deadline:
            raise TimeoutError(f"Spark Python workers still running: {sorted(pids)}")
        time.sleep(0.05)


def empty_job_ms(sc) -> float:
    """Median wall of five P-partition Python jobs that do no work."""
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        sc.parallelize(range(P), P).mapPartitions(lambda it: [0]).collect()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) * 1e3


def read_event_log(out_dir: str) -> list[dict]:
    """Events of the (stopped) session, in the order Spark logged them."""
    log_dir = os.path.join(out_dir, "eventlog")
    events = []
    for name in sorted(os.listdir(log_dir)):
        with open(os.path.join(log_dir, name)) as f:
            events.extend(json.loads(line) for line in f if line.strip())
    return events


def _sched_delay_ms(info: dict, metrics: dict) -> float:
    """Spark UI's scheduler delay: task time not spent running or (de)serializing."""
    total = info["Finish Time"] - info["Launch Time"]
    getting = info["Finish Time"] - info["Getting Result Time"] if info["Getting Result Time"] else 0
    return max(
        0,
        total
        - metrics["Executor Run Time"]
        - metrics["Executor Deserialize Time"]
        - metrics["Result Serialization Time"]
        - getting,
    )


def per_iteration(events: list[dict], labels: list[str]) -> dict[str, float]:
    """Means per iteration over the jobs whose description is in ``labels``.

    Callers leave out each method's last iteration: its label is shared
    with the final assignment collect.
    """
    stage_label: dict[int, str] = {}
    acc: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    current = None
    failed = 0
    for ev in events:
        kind = ev["Event"]
        if kind == "SparkListenerJobStart":
            current = (ev.get("Properties") or {}).get("spark.job.description")
            for sid in ev["Stage IDs"]:
                stage_label[sid] = current
            acc[current]["jobs_per_iter"] += 1
        elif kind == "SparkListenerJobEnd":
            current = None
        elif kind == "SparkListenerStageCompleted":
            acc[stage_label.get(ev["Stage Info"]["Stage ID"])]["stages_per_iter"] += 1
        elif kind == "SparkListenerTaskEnd":
            a = acc[stage_label.get(ev["Stage ID"])]
            info, m = ev["Task Info"], ev.get("Task Metrics") or {}
            a["tasks_per_iter"] += 1
            if info["Failed"] or ev["Task End Reason"]["Reason"] != "Success":
                failed += 1
            if not m:
                continue
            a["shuffle_bytes_per_iter"] += m["Shuffle Write Metrics"]["Shuffle Bytes Written"]
            a["result_bytes_per_iter"] += m["Result Size"]
            a["task_deser_ms"] += m["Executor Deserialize Time"]
            a["result_ser_ms"] += m["Result Serialization Time"]
            a["gc_ms"] += m["JVM GC Time"]
            a["sched_delay_ms"] += _sched_delay_ms(info, m)
        elif kind == "SparkListenerBlockUpdated":
            b = ev["Block Updated Info"]
            if b["Block ID"].startswith("rdd_"):
                acc[current]["state_bytes_per_iter"] += b["Memory Size"] + b["Disk Size"]
    keys = ("jobs_per_iter", "stages_per_iter", "tasks_per_iter", "shuffle_bytes_per_iter",
            "state_bytes_per_iter", "result_bytes_per_iter", "task_deser_ms", "result_ser_ms",
            "sched_delay_ms", "gc_ms")
    out = {k: sum(acc[lab][k] for lab in labels) / max(1, len(labels)) for k in keys}
    out["failed_tasks"] = failed
    return out
