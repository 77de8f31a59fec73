"""Dataflow rendering of the online TopL-ICDE phase.

The candidate centers are the vertices of the query's keyword truss
T_k(G_Q) (:meth:`LocalGraph.keyword_truss`), the test Algorithm 3 applies at
its leaves: every other vertex fails the keyword or the support test
(Lemmas 1/2) and hosts no seed community. The candidates are refined in
parallel batches via ``mapInPandas`` over a broadcast graph snapshot, in
descending σ_z(hop(v, r)) order, with the paper's σ_L early stop (Lemma 7)
applied *between* batches. Each worker runs the shared
:func:`~repro.core.topl.refine` / :func:`~repro.core.topl.rank` kernel.
Tests assert this returns exactly the same communities as the driver-side
Algorithm 3 (`core/topl.py`).

This is the documented physical-operator substitution (DESIGN.md §3): the
refinement is a DataFrame → DataFrame transformation — no JVM operator
needed.
"""
from __future__ import annotations

from dataclasses import fields, replace
from typing import Iterator, List

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.precompute import Precomputed, z_index
from repro.core.topl import Community, Query, rank, refine
from repro.graph.local import LocalGraph

# members as a comma-joined string: Arrow cannot ship list columns out of
# mapInPandas on this stack, and the driver re-parses them anyway.
_REFINE_SCHEMA = "center long, sigma double, members string"


def _refine_factory(local_bc, query: Query):
    """mapInPandas worker: the top-L communities of a batch of centers."""

    def refine_batches(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        local: LocalGraph = local_bc.value
        for pdf in batches:
            seen = set()
            top = rank((refine(local, int(v), query, seen) for v in pdf["vertex"]), query.L)
            yield pd.DataFrame(
                {
                    "center": [c.center for c in top],
                    "sigma": [c.sigma for c in top],
                    "members": [",".join(map(str, sorted(c.vertices))) for c in top],
                }
            )

    return refine_batches


def topl_icde_spark(
    spark: SparkSession,
    precomp: Precomputed,
    local: LocalGraph,
    query: Query,
    *,
    batch_size: int = 256,
) -> List[Community]:
    """TopL-ICDE over the keyword truss's centers + batched parallel
    refinement. Raises ValueError, as :func:`topl_icde` does, when the query
    radius is outside the precomputed [1, r_max], and when ``batch_size`` is
    below 1."""
    if not (1 <= query.r <= precomp.r_max):
        raise ValueError(f"query radius {query.r} outside precomputed [1, {precomp.r_max}]")
    if batch_size < 1:
        raise ValueError(f"batch_size={batch_size}: a batch holds at least one center")
    pdf = precomp.pdf[precomp.pdf["r"] == query.r]
    centers = local.keyword_truss(query.keywords, query.k).adj
    sig = f"sigma_{z_index(precomp.thetas, query.theta)}"
    ranked = pdf.loc[pdf["vertex"].isin(list(centers)), ["vertex", sig]].sort_values(
        [sig, "vertex"], ascending=[False, True]
    )

    # without any memo (every field outside ``==``): executors rebuild what
    # they need, and a warm memo is many times the size of the graph
    local_bc = spark.sparkContext.broadcast(
        replace(
            local,
            **{f.name: f.default_factory() for f in fields(local) if f.init and not f.compare},
        )
    )
    try:
        results: List[Community] = []
        for start in range(0, len(ranked), batch_size):
            batch = ranked.iloc[start : start + batch_size]
            # Lemma 7 between batches: bounds are sorted descending, so once
            # the best remaining bound cannot beat σ_L, everything left is
            # pruned.
            if len(results) >= query.L and batch[sig].iloc[0] <= results[-1].sigma:
                break
            refined = (
                spark.createDataFrame(batch[["vertex"]])
                .mapInPandas(_refine_factory(local_bc, query), schema=_REFINE_SCHEMA)
                .collect()
            )
            found = (
                Community(
                    row.center,
                    frozenset(int(x) for x in row.members.split(",")),
                    row.sigma,
                    graph=local,
                    theta=query.theta,
                )
                for row in refined
            )
            results = rank([*results, *found], query.L)
        return results
    finally:
        local_bc.unpersist()
