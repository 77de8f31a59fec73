"""Offline pre-computation (paper Algorithm 2) as one Spark pipeline.

For every vertex ``v_i`` and radius ``r ∈ [1, r_max]`` this produces the
aggregates the online phase prunes with:

* ``bv_r``      — OR of the keyword bit vectors over ``hop(v_i, r)``;
* ``ub_sup_r``  — max edge support over the *induced* edges of
  ``hop(v_i, r)`` (support measured in the full graph ``G``, a valid upper
  bound per the paper's Sec. IV-B discussion);
* ``sigma_z``   — influential-score upper bounds ``σ_z(hop(v_i, r))`` for the
  offline threshold grid ``θ_1 < … < θ_m`` (Sec. IV-D), i.e. the score of the
  whole r-hop subgraph treated as the seed community.

Dataflow: one multi-source BFS gives hop distances for *all* centers; each
``(center, v, dist)`` row is expanded to every radius ``r ≥ dist`` it is a
member of. Every aggregate is then one ``groupBy(center, r)``, and one
multi-source max-product fixpoint seeded with every ``(center, r)`` hop set
(seed-set id ``center·(r_max+1) + r``) yields ``cpp(hop(v_i, r), v)`` for all
centers and radii at once. An earlier formulation joined membership with the
all-pairs ``upp`` table instead — semantically identical but it materialises
|membership| × |reach| (~10⁹ rows at 10K vertices); the propagation keeps the
working set at the size of its *output*. No per-vertex traversals and no
per-radius passes (DESIGN.md §3).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import pandas as pd
from pyspark.sql import SparkSession, functions as F

from repro.graph.bfs import multi_source_hops
from repro.graph.triangles import edge_support
from repro.graph.types import SocialGraph
from repro.influence.mia import cpp_from_seeds
from repro.sparkutil import shuffle_partitions

#: Sentinel for "the r-hop subgraph has no induced edge": always prunable.
NO_EDGE_SUPPORT = -1


@dataclass
class Precomputed:
    """Output of the offline phase: per-(vertex, r) aggregates.

    ``pdf`` columns: ``vertex, r, bv_self, bv_r, ub_sup_r, sigma_0 … sigma_{m-1}``,
    sorted by ``(vertex, r)`` with one row per radius ``1..r_max``;
    ``sigma_z`` is for ``thetas[z]``, in ascending order.
    """

    pdf: pd.DataFrame
    thetas: Tuple[float, ...]
    r_max: int


def offline_precompute(
    spark: SparkSession,
    graph: SocialGraph,
    *,
    r_max: int,
    thetas: Sequence[float],
) -> Precomputed:
    """Run Algorithm 2 over ``graph`` and collect the (small) aggregates."""
    thetas = tuple(sorted(thetas))
    slots = r_max + 1  # seed-set id of (center, r) is center·slots + r
    support = edge_support(graph.undirected_edges())
    membership = multi_source_hops(
        spark, graph.adjacency(), r_max, vertices=graph.vertices
    )

    def by_radius(df, dist):
        """One row per radius ``r ∈ [max(dist, 1), r_max]`` whose hop holds it."""
        return df.withColumn(
            "r", F.explode(F.sequence(F.greatest(dist, F.lit(1)), F.lit(r_max)))
        )

    with shuffle_partitions(spark):
        # v ∈ hop(center, r)
        hop = by_radius(membership, F.col("dist"))
        bv = (
            hop.join(graph.vertices.select(F.col("id").alias("v"), "bv"), on="v")
            .groupBy("center", "r")
            .agg(
                F.expr("bit_or(bv)").alias("bv_r"),
                # the center's own bit vector: Def. 2 requires v_q ∈ g and
                # every vertex of g to hold a query keyword, so Lemma 1
                # applies to the center directly — a cheap keyword prune.
                F.max(F.when(F.col("dist") == 0, F.col("bv"))).alias("bv_self"),
            )
        )
        # induced-edge support: an edge {u,v} is inside hop(c, r) iff both
        # endpoints are within r, i.e. max(d_u, d_v) <= r
        m_u = membership.select("center", F.col("v").alias("u"), F.col("dist").alias("du"))
        m_v = membership.select("center", "v", F.col("dist").alias("dv"))
        sup = (
            by_radius(
                support.join(m_u, on="u").join(m_v, on=["center", "v"]),
                F.greatest("du", "dv"),
            )
            .groupBy("center", "r")
            .agg(F.max("support").alias("ub_sup_r"))
        )
        # cpp(hop(c, r), ·) for every (center, r) at once: one multi-source
        # max-product propagation seeded with each hop's members at cpp=1.
        seeds = hop.select((F.col("center") * slots + F.col("r")).alias("gid"), "v")
        cpp = cpp_from_seeds(spark, graph.edges, seeds, thetas[0])
        sigma = (
            cpp.groupBy("gid")
            .agg(
                *[
                    F.sum(
                        F.when(F.col("cpp") >= float(t), F.col("cpp")).otherwise(0.0)
                    ).alias(f"sigma_{z}")
                    for z, t in enumerate(thetas)
                ]
            )
            .withColumn("r", F.pmod("gid", F.lit(slots)).cast("int"))
            .withColumn("center", F.expr(f"(gid - r) div {slots}"))
            .drop("gid")
        )
        pdf = (
            bv.join(sup, on=["center", "r"], how="left")
            .join(sigma, on=["center", "r"], how="left")
            .toPandas()
        )

    pdf = pdf.rename(columns={"center": "vertex"})
    # Defensive dtype pinning: a nulls-carrying frame (or a non-Arrow
    # collection fallback) can promote int64 columns to float64; bit vectors
    # stay < 2^53 by construction (keywords.B ≤ 52) so this cast is lossless.
    for col in ("bv_r", "bv_self"):
        pdf[col] = pdf[col].astype("int64")
    pdf["ub_sup_r"] = pdf["ub_sup_r"].fillna(NO_EDGE_SUPPORT).astype("int64")
    pdf = pdf[
        ["vertex", "r", "bv_self", "bv_r", "ub_sup_r"]
        + [f"sigma_{z}" for z in range(len(thetas))]
    ].sort_values(["vertex", "r"]).reset_index(drop=True)
    return Precomputed(pdf=pdf, thetas=thetas, r_max=r_max)


def z_index(thetas: Sequence[float], theta: float) -> int:
    """Largest z with ``θ_z ≤ θ`` (the paper's ``θ ∈ [θ_z, θ_{z+1})``).

    The precomputed ``σ_z`` is only an upper bound for online thresholds
    ``θ ≥ θ_z``, so a query below the grid minimum is rejected.
    """
    zs = [z for z, t in enumerate(thetas) if t <= theta + 1e-12]
    if not zs:
        raise ValueError(
            f"online theta={theta} below the offline grid {tuple(thetas)}; "
            "σ_z would not be an upper bound"
        )
    return max(zs)
