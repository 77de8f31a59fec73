"""Edge support (triangle counts per edge) in the DataFrame API.

``sup(e_{u,v})`` — the number of triangles containing edge ``(u, v)`` — is
the quantity behind the paper's k-truss constraint (Def. 2) and the support
upper bound ``ub_sup`` of Lemmas 2/6. Computed as a relational three-way
join: an edge's support is the number of common neighbours of its endpoints.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, functions as F


def symmetric_adjacency(und_edges: DataFrame) -> DataFrame:
    """Both orientations ``(a, b)`` of canonical undirected edges."""
    return und_edges.select(F.col("u").alias("a"), F.col("v").alias("b")).unionByName(
        und_edges.select(F.col("v").alias("a"), F.col("u").alias("b"))
    )


def edge_support(und_edges: DataFrame) -> DataFrame:
    """Support of every canonical undirected edge.

    Input: ``(u, v)`` with ``u < v``, distinct. Output: ``(u, v, support)``
    including support-0 edges (left join keeps triangle-free edges, which the
    peeling loop must still see).
    """
    adj = symmetric_adjacency(und_edges)
    nbr_u = adj.select(F.col("a").alias("u"), F.col("b").alias("w"))
    nbr_v = adj.select(F.col("a").alias("v"), F.col("b").alias("w"))
    tri = (
        und_edges.join(nbr_u, on="u")
        .join(nbr_v, on=["v", "w"])
        .groupBy("u", "v")
        .agg(F.count("*").alias("support"))
    )
    return (
        und_edges.join(tri, on=["u", "v"], how="left")
        .select("u", "v", F.coalesce("support", F.lit(0)).alias("support"))
    )
