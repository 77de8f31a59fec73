"""Shared SparkSession builder for spark-submit entrypoints.

Jobs create their own session (they run standalone under spark-submit);
tests use the session-scoped ``spark`` fixture from ``conftest.py`` and
perfbench starts its own — never two at once.

When run as plain ``python jobs/<name>.py`` (no spark-submit), the driver
JVM would default to 1g; mirror conftest.py's sizing via
``PYSPARK_SUBMIT_ARGS`` *before* pyspark is imported.
"""
from __future__ import annotations

import os

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '24g')} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def print_rows(title: str, rows) -> None:
    """Render a list-of-dicts result table to stdout."""
    import pandas as pd

    print(f"\n== {title} ==")
    if isinstance(rows, dict):
        rows = [rows]
    print(pd.DataFrame(rows).to_string(index=False))
