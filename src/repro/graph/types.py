"""Graph data model for the reproduction.

A social network (paper Def. 1) is an attributed graph whose *structure* is
undirected (friend/co-author ties — used for trusses, cores, BFS radii) while
*influence* is directed: each undirected tie {u, v} carries two independent
activation probabilities ``p_uv`` and ``p_vu`` in ``[0.5, 0.6)`` (paper
Sec. VIII-A).

``SocialGraph`` holds the two canonical Spark DataFrames:

* ``vertices``: ``id: long, keywords: array<string>, bv: long`` — ``bv`` is
  the 64-bit keyword bit vector of ``keywords`` (``core.keywords.bv_of``).
* ``edges``: ``src: long, dst: long, weight: double`` — *directed*; both
  orientations of every undirected tie are present.

Helper views (undirected canonical edges, symmetric adjacency) are derived,
never stored, so the two base frames stay the single source of truth.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, functions as F

from repro.graph.triangles import symmetric_adjacency


def validate_frames(vertices: pd.DataFrame, edges: pd.DataFrame) -> None:
    """Reject pandas vertex/edge frames that break the paper's math.

    Raises ValueError on a weight outside (0, 1) (NaN included: MIA threshold
    pruning is exact only if every p < 1), a duplicate vertex id or a self
    loop.
    """
    ids, w = vertices["id"], edges["weight"]
    dup = ids[ids.duplicated()]
    if len(dup):
        raise ValueError(f"duplicate vertex ids: {sorted(set(dup))[:5]}")
    bad = w[~((w > 0) & (w < 1))]
    if len(bad):
        raise ValueError(f"{len(bad)} edge weights outside (0, 1): {list(bad[:5])}")
    loops = edges["src"][edges["src"] == edges["dst"]]
    if len(loops):
        raise ValueError(f"self loops at vertices {sorted(set(loops))[:5]}")


@dataclass(frozen=True)
class SocialGraph:
    """The attributed, weighted social network ``G`` as Spark DataFrames."""

    vertices: DataFrame
    edges: DataFrame

    def undirected_edges(self) -> DataFrame:
        """Canonical undirected edge set: ``(u, v)`` with ``u < v``, distinct.

        This is the structural view used by triangle counting, k-truss,
        k-core, and BFS — influence weights are dropped on purpose.
        """
        return (
            self.edges.select(
                F.least("src", "dst").alias("u"),
                F.greatest("src", "dst").alias("v"),
            )
            .where(F.col("u") != F.col("v"))
            .distinct()
        )

    def adjacency(self) -> DataFrame:
        """Symmetric unweighted adjacency ``(a, b)``: both orientations."""
        return symmetric_adjacency(self.undirected_edges())
