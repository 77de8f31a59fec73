"""Small Spark helpers shared by the iterative graph algorithms."""
from __future__ import annotations

from contextlib import contextmanager

from pyspark.sql import DataFrame, SparkSession


#: Shuffle partitions of the offline graph pipeline (see ``shuffle_partitions``).
SHUFFLE_PARTITIONS = 16


@contextmanager
def shuffle_partitions(spark: SparkSession):
    """Temporarily pin ``spark.sql.shuffle.partitions`` to ``SHUFFLE_PARTITIONS``.

    The iterative message-passing loops shuffle small frames many times; the
    session default (sized for SF~0.1 relational work) would spread a few
    thousand rows over 64 partitions per iteration. Restored on exit.
    """
    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    spark.conf.set(key, str(SHUFFLE_PARTITIONS))
    try:
        yield
    finally:
        spark.conf.set(key, old)


def materialize(df: DataFrame) -> DataFrame:
    """Cut lineage inside iterative loops.

    ``localCheckpoint(eager=True)`` persists the partitions and truncates the
    logical plan — without it, each BFS/propagation round doubles the plan and
    Catalyst analysis time dominates after ~10 iterations.
    """
    return df.localCheckpoint(eager=True)
