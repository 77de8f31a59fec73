"""ATindex — the paper's TopL-ICDE competitor (Sec. VIII-A).

ATindex adapts the state-of-the-art (k,d)-truss community search [22]: it
offline indexes *trussness* on edges/vertices, online filters out vertices
whose trussness is below k, extracts keyword-satisfying r-hop subgraphs
around every surviving center, obtains the maximal k-truss there, computes
the influential score of **every** candidate (no score bounds, no best-first
early stop), and finally ranks the top-L.

The offline trussness is computed on a driver snapshot with the online
phase's k-truss peel (:meth:`LocalGraph.ktruss`), not in Spark; DESIGN.md
§3 gives the reason.

The paper samples 0.5% of DBLP's centers and extrapolates ATindex's time by
×200 because the full run is impractical; :func:`atindex_query` exposes the
same ``sample`` mechanism for our larger stand-in graphs.
"""
from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from pyspark.sql import SparkSession

from repro.core.topl import Community, Query, rank, refine
from repro.graph.local import LocalGraph
from repro.graph.types import SocialGraph


def edge_trussness(local: LocalGraph) -> Dict[Tuple[int, int], int]:
    """Trussness of every canonical edge: the largest k whose maximal
    k-truss holds it (at least 2).

    Level k peels only the vertices of the (k-1)-truss: the k-truss is a
    subgraph of the (k-1)-truss, so it lies inside their induced subgraph.
    """
    trussness = dict.fromkeys(local.undirected_edges(), 2)
    alive, k = set(local.adj), 3
    while True:
        alive, edges = local.ktruss(alive, k)
        if not edges:
            return trussness
        trussness.update(dict.fromkeys(edges, k))
        k += 1


def atindex_offline(spark: SparkSession, graph: SocialGraph) -> Dict[int, int]:
    """Offline phase: vertex trussness, the max over incident edges.

    Vertices without edges are absent (:func:`atindex_query` reads them as
    trussness 2).
    """
    local = LocalGraph.from_pandas(graph.vertices.toPandas(), graph.edges.toPandas())
    vtruss: Dict[int, int] = {}
    for (u, v), t in edge_trussness(local).items():
        for x in (u, v):
            if t > vtruss.get(x, 0):
                vtruss[x] = t
    return vtruss


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
    does for DBLP. ValueError for an f outside (0, 1].
    """
    if sample is not None and not 0 < sample <= 1:
        raise ValueError(f"sample={sample} outside (0, 1]")
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
