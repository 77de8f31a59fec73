"""Synthetic social-network generators (paper Sec. VIII-A).

The paper evaluates on

* Newman–Watts–Strogatz small-world graphs (``m = 6`` ring neighbours,
  shortcut probability ``mu = 0.167``), per-vertex keyword sets drawn from a
  domain ``Sigma`` under Uniform / Gaussian / Zipf distributions (graphs
  **Uni**, **Gau**, **Zipf**), and directed edge weights uniform in
  ``[0.5, 0.6)``;
* two real graphs, DBLP and Amazon, which are not available offline — we
  substitute clique-affiliation graphs (:func:`dblp_like`,
  :func:`amazon_like`) that reproduce their defining property for this paper
  (high clustering, so non-trivial k-trusses exist). See DESIGN.md §4.

All generation happens in numpy/pandas on the driver (the paper's graphs are
generated the same way) and is deterministic in ``seed``; Spark frames are
produced with ``spark.createDataFrame`` so the DuckDB oracle sees identical
rows.
"""
from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from repro.core.keywords import bv_of
from repro.graph.types import SocialGraph, validate_frames

WEIGHT_LOW = 0.5
WEIGHT_HIGH = 0.6

_VERTEX_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("keywords", T.ArrayType(T.StringType()), False),
        T.StructField("bv", T.LongType(), False),
    ]
)
_EDGE_SCHEMA = T.StructType(
    [
        T.StructField("src", T.LongType(), False),
        T.StructField("dst", T.LongType(), False),
        T.StructField("weight", T.DoubleType(), False),
    ]
)


def nws_undirected_edges(n: int, m: int = 6, mu: float = 0.167, seed: int = 0) -> np.ndarray:
    """Newman–Watts–Strogatz edge list as an ``(E, 2)`` array with ``u < v``.

    Ring of ``n`` vertices, each connected to its ``m`` nearest neighbours
    (``m/2`` on each side); then for every ring edge, with probability
    ``mu``, one extra shortcut from its left endpoint to a uniformly random
    vertex (NWS adds shortcuts, it never rewires — the ring stays intact).
    """
    if m % 2 != 0:
        raise ValueError("m must be even (m/2 neighbours per side)")
    if n <= m:
        raise ValueError(f"need n > m, got n={n}, m={m}")
    g = np.random.default_rng(seed)
    half = m // 2
    base = np.arange(n, dtype=np.int64)
    ring = np.concatenate(
        [np.stack([base, (base + d) % n], axis=1) for d in range(1, half + 1)]
    )
    take = g.random(len(ring)) < mu
    srcs = ring[take, 0]
    dsts = g.integers(0, n, size=len(srcs))
    keep = srcs != dsts
    shortcuts = np.stack([srcs[keep], dsts[keep]], axis=1)
    all_edges = np.concatenate([ring, shortcuts])
    canon = np.stack([all_edges.min(axis=1), all_edges.max(axis=1)], axis=1)
    return np.unique(canon, axis=0)


def clique_affiliation_edges(
    n: int,
    n_cliques: int,
    clique_size_low: int = 3,
    clique_size_high: int = 7,
    membership_alpha: float = 0.8,
    seed: int = 0,
) -> np.ndarray:
    """Union of random cliques — DBLP/Amazon-style clustered structure.

    Each "paper"/"basket" is a clique whose members are drawn from a Zipf-
    skewed popularity distribution over vertices (hubs belong to many
    cliques), mirroring co-authorship / co-purchase graphs where k-trusses
    are plentiful. Returns canonical ``u < v`` unique edges.
    """
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    pop = 1.0 / ranks**membership_alpha
    pop /= pop.sum()
    perm = g.permutation(n)  # decouple popularity from vertex id
    edges: List[np.ndarray] = []
    for _ in range(n_cliques):
        size = int(g.integers(clique_size_low, clique_size_high + 1))
        members = perm[g.choice(n, size=size, replace=False, p=pop)]
        iu, iv = np.triu_indices(size, k=1)
        edges.append(np.stack([members[iu], members[iv]], axis=1))
    # A sparse ring keeps the graph connected so BFS radii are well defined.
    base = np.arange(n, dtype=np.int64)
    edges.append(np.stack([base, (base + 1) % n], axis=1))
    all_edges = np.concatenate(edges).astype(np.int64)
    keep = all_edges[:, 0] != all_edges[:, 1]
    all_edges = all_edges[keep]
    canon = np.stack([all_edges.min(axis=1), all_edges.max(axis=1)], axis=1)
    return np.unique(canon, axis=0)


def keyword_probabilities(sigma: int, dist: str) -> np.ndarray:
    """Per-keyword selection probabilities for the three paper distributions."""
    ranks = np.arange(sigma, dtype=np.float64)
    if dist == "uniform":
        p = np.ones(sigma)
    elif dist == "gaussian":
        center = (sigma - 1) / 2.0
        std = max(sigma / 6.0, 1e-9)
        p = np.exp(-((ranks - center) ** 2) / (2 * std**2))
    elif dist == "zipf":
        p = 1.0 / (ranks + 1.0) ** 1.5
    else:
        raise ValueError(f"unknown keyword distribution {dist!r}")
    return p / p.sum()


def assign_keywords(
    n: int, sigma: int, w_per_vertex: int, dist: str, seed: int = 0
) -> List[List[str]]:
    """Draw ``w_per_vertex`` *distinct* keywords per vertex from ``Sigma``.

    Weighted sampling without replacement for all vertices at once via the
    Gumbel-top-k trick: per vertex, the ``w`` largest ``log p + Gumbel``
    perturbed keys are an exact weighted sample without replacement.
    """
    w = min(w_per_vertex, sigma)
    g = np.random.default_rng(seed)
    p = keyword_probabilities(sigma, dist)
    gumbel = g.gumbel(size=(n, sigma))
    keys = np.log(p + 1e-300)[None, :] + gumbel
    top = np.argpartition(-keys, kth=w - 1, axis=1)[:, :w]
    return [[f"kw{int(j)}" for j in row] for row in top]


def directed_weighted_edges(
    undirected: np.ndarray, seed: int = 0
) -> pd.DataFrame:
    """Expand canonical undirected edges into both directed orientations.

    Each orientation draws an independent activation probability from
    ``U[0.5, 0.6)`` (paper Sec. VIII-A).
    """
    g = np.random.default_rng(seed)
    e = len(undirected)
    w = WEIGHT_LOW + g.random(2 * e) * (WEIGHT_HIGH - WEIGHT_LOW)
    return pd.DataFrame(
        {
            "src": np.concatenate([undirected[:, 0], undirected[:, 1]]),
            "dst": np.concatenate([undirected[:, 1], undirected[:, 0]]),
            "weight": w,
        }
    )


def vertices_pdf(keywords: List[List[str]]) -> pd.DataFrame:
    """Vertex frame with pre-hashed bit vectors (Algorithm 2 lines 1–3)."""
    return pd.DataFrame(
        {
            "id": np.arange(len(keywords), dtype=np.int64),
            "keywords": keywords,
            "bv": np.array([bv_of(kws) for kws in keywords], dtype=np.int64),
        }
    )


def build_social_graph(
    spark: SparkSession, vertices: pd.DataFrame, edges: pd.DataFrame
) -> SocialGraph:
    """Lift pandas vertex/edge frames into a :class:`SocialGraph`.

    Raises ValueError on frames that :func:`validate_frames` rejects, before
    any Spark work reads them.
    """
    validate_frames(vertices, edges)
    return SocialGraph(
        vertices=spark.createDataFrame(vertices, schema=_VERTEX_SCHEMA),
        edges=spark.createDataFrame(edges, schema=_EDGE_SCHEMA),
    )


def social_network(
    spark: SparkSession,
    n: int,
    *,
    dist: str = "uniform",
    sigma: int = 20,
    w_per_vertex: int = 3,
    m: int = 6,
    mu: float = 0.167,
    seed: int = 0,
) -> SocialGraph:
    """The paper's synthetic graphs **Uni** / **Gau** / **Zipf**."""
    und = nws_undirected_edges(n, m=m, mu=mu, seed=seed)
    edges = directed_weighted_edges(und, seed=seed + 1)
    verts = vertices_pdf(assign_keywords(n, sigma, w_per_vertex, dist, seed=seed + 2))
    return build_social_graph(spark, verts, edges)


def pandas_social_network(
    n: int,
    *,
    dist: str = "uniform",
    sigma: int = 20,
    w_per_vertex: int = 3,
    m: int = 6,
    mu: float = 0.167,
    seed: int = 0,
) -> Tuple[pd.DataFrame, pd.DataFrame]:
    """Driver-only variant of :func:`social_network` (no SparkSession)."""
    und = nws_undirected_edges(n, m=m, mu=mu, seed=seed)
    edges = directed_weighted_edges(und, seed=seed + 1)
    verts = vertices_pdf(assign_keywords(n, sigma, w_per_vertex, dist, seed=seed + 2))
    return verts, edges


def dblp_like(
    spark: SparkSession,
    n: int = 10_000,
    *,
    sigma: int = 20,
    w_per_vertex: int = 3,
    seed: int = 100,
) -> SocialGraph:
    """DBLP stand-in: dense co-authorship cliques (papers of 3–7 authors)."""
    und = clique_affiliation_edges(
        n, n_cliques=int(n * 0.8), clique_size_low=3, clique_size_high=7, seed=seed
    )
    edges = directed_weighted_edges(und, seed=seed + 1)
    verts = vertices_pdf(assign_keywords(n, sigma, w_per_vertex, "zipf", seed=seed + 2))
    return build_social_graph(spark, verts, edges)


def amazon_like(
    spark: SparkSession,
    n: int = 10_000,
    *,
    sigma: int = 20,
    w_per_vertex: int = 3,
    seed: int = 200,
) -> SocialGraph:
    """Amazon stand-in: smaller co-purchase baskets (2–4 items), sparser."""
    und = clique_affiliation_edges(
        n, n_cliques=int(n * 1.0), clique_size_low=2, clique_size_high=4, seed=seed
    )
    edges = directed_weighted_edges(und, seed=seed + 1)
    verts = vertices_pdf(
        assign_keywords(n, sigma, w_per_vertex, "uniform", seed=seed + 2)
    )
    return build_social_graph(spark, verts, edges)
