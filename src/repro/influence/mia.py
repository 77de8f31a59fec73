"""MIA influence propagation as bulk max-product message passing.

The paper's influence model (Sec. II-B) scores a path by the product of its
edge probabilities and a vertex pair by the best path (``upp``, Eq. 3). With
all weights < 1 the product strictly decreases along a path, so any vertex
whose best path scores ≥ θ reaches it through prefixes that all score ≥ θ —
pruning states below θ during propagation is therefore *exact* (tested
against brute-force path enumeration).

One fixpoint loop over a ``(src, v, val)`` state DataFrame,
``maxprod_propagate``, computes per-seed-set ``cpp(g, v)`` (sources =
community ids, ``cpp_from_seeds``). The offline precompute seeds it per
radius with every center's r-hop members to get ``cpp(hop(v_i, r), v)`` for
all centers at once; it is also the distributed twin of
``LocalGraph.influence``. The loop raises if it has not converged within
``max_iters`` rounds: a partial state underestimates cpp, and σ bounds built
from it would prune true answers.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.sparkutil import materialize, shuffle_partitions

#: Relaxation tolerance: improvements smaller than this do not count, which
#: guarantees termination despite floating-point noise.
TOL = 1e-12


def maxprod_propagate(
    spark: SparkSession,
    edges: DataFrame,
    init: DataFrame,
    theta: float,
    *,
    partitions: int = 16,
    max_iters: int = 64,
) -> DataFrame:
    """Fixpoint of max-product relaxation from ``init`` states.

    ``edges``: directed ``(src, dst, weight)``; ``init``: ``(src, v, val)``
    seed states (``src`` is the propagation source id, ``v`` the current
    vertex). Returns the converged ``(src, v, val)`` with ``val ≥ theta``;
    raises ``RuntimeError`` if ``max_iters`` rounds do not converge.
    """
    e = edges.select(
        F.col("src").alias("_eu"), F.col("dst").alias("_ev"), "weight"
    )
    state = materialize(init.where(F.col("val") >= theta))
    frontier = state
    with shuffle_partitions(spark, partitions):
        for _ in range(max_iters):
            cand = (
                frontier.join(e, frontier.v == F.col("_eu"))
                .select(
                    "src",
                    F.col("_ev").alias("v"),
                    (F.col("val") * F.col("weight")).alias("val"),
                )
                .where(F.col("val") >= theta)
                .groupBy("src", "v")
                .agg(F.max("val").alias("val"))
            )
            improved = materialize(
                cand.join(
                    state.select("src", "v", F.col("val").alias("_old")),
                    on=["src", "v"],
                    how="left",
                ).where(
                    F.col("val") > F.coalesce(F.col("_old"), F.lit(0.0)) + TOL
                ).select("src", "v", "val")
            )
            if improved.limit(1).count() == 0:
                break
            state = materialize(
                state.unionByName(improved)
                .groupBy("src", "v")
                .agg(F.max("val").alias("val"))
            )
            frontier = improved
        else:
            raise RuntimeError(f"max-product propagation not converged after {max_iters} rounds")
    return state


def cpp_from_seeds(
    spark: SparkSession,
    edges: DataFrame,
    seeds: DataFrame,
    theta: float,
    *,
    partitions: int = 16,
) -> DataFrame:
    """``cpp(g, v)`` for many communities at once.

    ``seeds``: ``(gid, v)`` membership rows. Returns ``(gid, v, cpp)`` over
    each influenced community ``g^Inf`` (members included at cpp = 1).
    """
    init = seeds.select(
        F.col("gid").alias("src"), F.col("v"), F.lit(1.0).alias("val")
    )
    out = maxprod_propagate(spark, edges, init, theta, partitions=partitions)
    return out.select(F.col("src").alias("gid"), "v", F.col("val").alias("cpp"))
