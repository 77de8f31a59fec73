"""Dataflow rendering of the online TopL-ICDE phase.

The index-level prunes of Algorithm 3 (Lemmas 5/6) are the ``pruning.py``
predicates applied to the collected precompute aggregates; surviving
candidate centers are refined in parallel batches via ``mapInPandas`` over a
broadcast graph snapshot, in descending score-bound order, with the paper's
σ_L early stop (Lemma 7) applied *between* batches. Each worker runs the
shared :func:`~repro.core.topl.refine` / :func:`~repro.core.topl.rank`
kernel. Tests assert this returns exactly the same communities as the
driver-side Algorithm 3 (`core/topl.py`).

This is the documented physical-operator substitution (DESIGN.md §3): the
refinement is a DataFrame → DataFrame transformation — no JVM operator
needed.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Iterator, List

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.keywords import bv_of
from repro.core.precompute import Precomputed, z_index
from repro.core.pruning import keyword_prune, support_prune
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
    """TopL-ICDE with predicate pruning + batched parallel refinement."""
    qbv = bv_of(query.keywords)
    pdf = precomp.pdf[precomp.pdf["r"] == query.r]
    keep = ~(
        # Lemma 5 on the hop subgraph and on the center itself (Def. 2: v_q ∈ g)
        keyword_prune(pdf["bv_r"], qbv)
        | keyword_prune(pdf["bv_self"], qbv)
        # Lemma 6 (safe form)
        | support_prune(pdf["ub_sup_r"], query.k)
    )
    sig = f"sigma_{z_index(precomp.thetas, query.theta)}"
    ranked = pdf.loc[keep, ["vertex", sig]].sort_values(
        [sig, "vertex"], ascending=[False, True]
    )

    # without the influence and σ memos: executors rebuild what they need,
    # and a warm memo is many times the size of the graph
    local_bc = spark.sparkContext.broadcast(replace(local, _arbo={}, sigma_memo={}))
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
