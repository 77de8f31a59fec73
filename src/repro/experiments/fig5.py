"""Fig. 5 — case study (RQ3): Top1-ICDE community vs a 4-core community.

The paper picks the Top-1 seed community on Amazon ((4,2)-truss, 4 users,
σ = 344.31, 974 possibly-influenced users) and contrasts it with the 4-core
community around the same center vertex (5 users, σ = 239.81, 646
influenced): structural cohesion via trusses concentrates influence better
than the looser k-core. "Possibly influenced" counts the influenced
community under the permissive grid minimum θ_1.

The k-core comparator follows the classic community-search semantics
(Sozio & Gionis): the connected k-core component around the center inside
the same radius, *without* keyword filtering.
"""
from __future__ import annotations

from typing import Dict

from pyspark.sql import SparkSession

from repro.core.topl import topl_icde
from repro.experiments import params as P
from repro.experiments.datasets import AMAZON_LIKE_N, prepare
from repro.experiments.runner import make_query


def run(spark: SparkSession, *, qseed: int = 0) -> Dict:
    prep = prepare(spark, kind="amazon", n=AMAZON_LIKE_N)
    q = make_query(qseed=qseed, L=1)
    top = topl_icde(prep.local, prep.index, q, prep.pre.thetas)
    if not top:
        return {"found": False}
    g = top[0]
    local = prep.local
    theta_min = prep.pre.thetas[0]

    # k-core community at the same center: connected component of the
    # maximal k-core of the center's r-hop subgraph.
    center = g.center
    hop = set(local.khop(center, q.r))
    core = local.kcore(hop, q.k)
    core_comm = set(local.khop(center, len(core), allowed=core))

    def digest(members):
        if not members:
            return {"size": 0, "sigma": 0.0, "influenced": 0}
        cpp = local.influence(members, q.theta)
        cpp_min = local.influence(members, theta_min)
        return {
            "size": len(members),
            "sigma": round(float(sum(cpp.values())), 2),
            "influenced": len(cpp_min),
        }

    return {
        "found": True,
        "center": center,
        "truss": digest(g.vertices),
        "kcore": digest(core_comm),
    }
