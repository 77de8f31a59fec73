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

Dataflow: one multi-source BFS gives hop membership for *all* centers; then,
per radius, one multi-source max-product fixpoint seeded with every center's
hop members yields ``cpp(hop(v_i, r), v)`` for all centers at once, and one
aggregation produces every σ_z. An earlier formulation joined membership
with the all-pairs ``upp`` table instead — semantically identical but it
materialises |membership| × |reach| (~10⁹ rows at 10K vertices); the
propagation keeps the working set at the size of its *output* (~10⁷ rows).
No per-vertex traversals anywhere (DESIGN.md §3).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import pandas as pd
from pyspark.sql import SparkSession, functions as F

from repro.graph.bfs import multi_source_hops
from repro.graph.triangles import edge_support
from repro.graph.types import SocialGraph
from repro.influence.mia import cpp_from_seeds
from repro.sparkutil import shuffle_partitions

#: Sentinel for "the r-hop subgraph has no induced edge": always prunable.
NO_EDGE_SUPPORT = -1

DEFAULT_THETAS: Tuple[float, ...] = (0.1, 0.2, 0.3)
DEFAULT_R_MAX = 3


@dataclass
class Precomputed:
    """Output of the offline phase: per-(vertex, r) aggregates.

    ``pdf`` columns: ``vertex, r, bv_self, bv_r, ub_sup_r, sigma_0 … sigma_{m-1}``.
    ``support_pdf`` is the global canonical edge-support table (consumed by
    the ``LocalGraph`` snapshot and by Lemma 2 at refinement time).
    """

    pdf: pd.DataFrame
    support_pdf: pd.DataFrame
    thetas: Tuple[float, ...]
    r_max: int


def offline_precompute(
    spark: SparkSession,
    graph: SocialGraph,
    *,
    r_max: int = DEFAULT_R_MAX,
    thetas: Sequence[float] = DEFAULT_THETAS,
    partitions: int = 16,
) -> Precomputed:
    """Run Algorithm 2 over ``graph`` and collect the (small) aggregates."""
    thetas = tuple(sorted(thetas))
    und = graph.undirected_edges()
    support = edge_support(und).cache()
    adjacency = graph.adjacency()

    membership = multi_source_hops(
        spark, adjacency, r_max, vertices=graph.vertices, partitions=partitions
    ).cache()

    frames: List[pd.DataFrame] = []
    with shuffle_partitions(spark, partitions):
        # bit vectors and supports are cheap: pre-reduce per (center, d) so
        # each radius only re-aggregates tiny intermediates.
        bv_d = (
            membership.join(
                graph.vertices.select(F.col("id").alias("v"), "bv"), on="v"
            )
            .groupBy("center", "dist")
            .agg(F.expr("bit_or(bv)").alias("bv_d"))
        ).cache()
        # induced-edge support: an edge {u,v} is inside hop(c, r) iff both
        # endpoints are within r, i.e. max(d_u, d_v) <= r
        m_u = membership.select("center", F.col("v").alias("u"), F.col("dist").alias("du"))
        m_v = membership.select("center", "v", F.col("dist").alias("dv"))
        sup_d = (
            support.join(m_u, on="u")
            .join(m_v, on=["center", "v"])
            .withColumn("dist", F.greatest("du", "dv"))
            .groupBy("center", "dist")
            .agg(F.max("support").alias("sup_d"))
        ).cache()

        for r in range(1, r_max + 1):
            bv_r = (
                bv_d.where(F.col("dist") <= r)
                .groupBy("center")
                .agg(F.expr("bit_or(bv_d)").alias("bv_r"))
            )
            sup_r = (
                sup_d.where(F.col("dist") <= r)
                .groupBy("center")
                .agg(F.max("sup_d").alias("ub_sup_r"))
            )
            # cpp(hop(c, r), ·) for every center at once: multi-source
            # max-product propagation seeded with the hop members at cpp=1.
            seeds = membership.where(F.col("dist") <= r).select(
                F.col("center").alias("gid"), "v"
            )
            cpp_r = cpp_from_seeds(
                spark, graph.edges, seeds, thetas[0], partitions=partitions
            ).withColumnRenamed("gid", "center")
            sigma_r = cpp_r.groupBy("center").agg(
                *[
                    F.sum(
                        F.when(F.col("cpp") >= float(t), F.col("cpp")).otherwise(0.0)
                    ).alias(f"sigma_{z}")
                    for z, t in enumerate(thetas)
                ]
            )
            joined = (
                bv_r.join(sup_r, on="center", how="left")
                .join(sigma_r, on="center", how="left")
                .withColumn("r", F.lit(r))
            )
            frames.append(joined.toPandas())
        bv_d.unpersist()
        sup_d.unpersist()

    pdf = pd.concat(frames, ignore_index=True).rename(columns={"center": "vertex"})
    # Defensive dtype pinning: a nulls-carrying frame (or a non-Arrow
    # collection fallback) can promote int64 columns to float64; bit vectors
    # stay < 2^53 by construction (keywords.B ≤ 52) so this cast is lossless.
    pdf["bv_r"] = pdf["bv_r"].astype("int64")
    pdf["ub_sup_r"] = pdf["ub_sup_r"].fillna(NO_EDGE_SUPPORT).astype("int64")
    for z in range(len(thetas)):
        pdf[f"sigma_{z}"] = pdf[f"sigma_{z}"].fillna(0.0)
    # The center's own bit vector: Def. 2 requires v_q ∈ g and every vertex
    # of g (hence the center) to hold a query keyword, so Lemma 1 applies to
    # the center directly — a cheap, high-power keyword prune.
    own_bv = graph.vertices.select(
        F.col("id").alias("vertex"), F.col("bv").alias("bv_self")
    ).toPandas()
    pdf = pdf.merge(own_bv, on="vertex", how="left")
    pdf["bv_self"] = pdf["bv_self"].fillna(0).astype("int64")
    pdf = pdf[
        ["vertex", "r", "bv_self", "bv_r", "ub_sup_r"]
        + [f"sigma_{z}" for z in range(len(thetas))]
    ].sort_values(["vertex", "r"]).reset_index(drop=True)

    support_pdf = support.toPandas()
    membership.unpersist()
    support.unpersist()
    return Precomputed(pdf=pdf, support_pdf=support_pdf, thetas=thetas, r_max=r_max)


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
