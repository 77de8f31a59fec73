"""Multi-source r-hop BFS as bulk iterative message passing.

The offline phase (paper Alg. 2) needs the r-hop subgraph ``hop(v_i, r)``
for *every* vertex and every radius up to ``r_max``. Instead of |V| separate
traversals, a single frontier DataFrame keyed by ``(center, v)`` expands all
centers at once — the standard Pregel-style rendering in the DataFrame API.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.sparkutil import materialize, shuffle_partitions


def multi_source_hops(
    spark: SparkSession,
    adjacency: DataFrame,
    r_max: int,
    *,
    vertices: DataFrame,
) -> DataFrame:
    """Hop distances ``(center, v, dist)`` for ``dist ∈ [0, r_max]``.

    ``adjacency`` is the symmetric ``(a, b)`` frame; every ``id`` of
    ``vertices`` is a source. A row ``(c, v, d)`` means ``dist(c, v) = d`` —
    membership of ``hop(c, r)`` is ``dist <= r``. The result is materialised.
    The depth is fixed, so ``r_max`` rounds are complete by construction
    and no round probes for an empty frontier.
    """
    state = materialize(
        vertices.select(
            F.col("id").alias("center"), F.col("id").alias("v"), F.lit(0).alias("dist")
        )
    )
    frontier = state
    with shuffle_partitions(spark):
        for d in range(1, r_max + 1):
            neighbours = (
                frontier.join(adjacency, frontier.v == adjacency.a)
                .select("center", F.col("b").alias("v"))
                .distinct()
            )
            new = materialize(
                neighbours.join(state, on=["center", "v"], how="left_anti")
                .withColumn("dist", F.lit(d))
            )
            state = materialize(state.unionByName(new))
            frontier = new
    return state
