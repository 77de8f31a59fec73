"""ATindex — the paper's TopL-ICDE competitor (Sec. VIII-A).

ATindex adapts the state-of-the-art (k,d)-truss community search [22]: it
offline indexes *trussness* on edges/vertices, online filters out vertices
whose trussness is below k, extracts keyword-satisfying r-hop subgraphs
around every surviving center, obtains the maximal k-truss there, computes
the influential score of **every** candidate (no score bounds, no best-first
early stop), and finally ranks the top-L.

The paper samples 0.5% of DBLP's centers and extrapolates ATindex's time by
×200 because the full run is impractical; :func:`atindex_query` exposes the
same ``sample`` mechanism for our larger stand-in graphs.
"""
from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Set

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.topl import Community, Query, rank, refine
from repro.graph.local import LocalGraph
from repro.graph.truss import edge_trussness, vertex_trussness
from repro.graph.types import SocialGraph


def atindex_offline(spark: SparkSession, graph: SocialGraph) -> Dict[int, int]:
    """Offline phase: vertex trussness over the whole graph (Spark)."""
    t = edge_trussness(spark, graph.undirected_edges())
    pdf: pd.DataFrame = vertex_trussness(t).toPandas()
    return {int(i): int(k) for i, k in zip(pdf["id"], pdf["trussness"])}


def atindex_query(
    local: LocalGraph,
    vtruss: Dict[int, int],
    query: Query,
    *,
    sample: Optional[float] = None,
    seed: int = 0,
) -> List[Community]:
    """Online phase: trussness + keyword filter, then refine everything.

    ``sample`` (0 < f ≤ 1) processes only a random fraction of the candidate
    centers — the caller extrapolates wall-clock by 1/f exactly as the paper
    does for DBLP.
    """
    candidates = [
        v
        for v in sorted(local.vertices())
        # isolated vertices are absent from the trussness table → trussness 2
        if vtruss.get(v, 2) >= query.k
        and (local.keywords.get(v, frozenset()) & query.keywords)
    ]
    if sample is not None and sample < 1.0 and candidates:
        rng = random.Random(seed)
        k = max(1, int(len(candidates) * sample))
        candidates = sorted(rng.sample(candidates, k))
    seen: Set[FrozenSet[int]] = set()
    return rank((refine(local, v, query, seen) for v in candidates), query.L)
