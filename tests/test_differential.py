"""Differential exactness over several generators and random queries.

``topl_icde`` (index + pruning), ``brute_force_topl`` (no pruning) and
``atindex_query`` (trussness filter) must return the same ranked σ lists on
the clique-affiliation stand-ins and on Zipf keywords, not only on the NWS
Uniform fixture. The last two share the refinement kernel and the ranking
rule, and every center of a k-truss community has trussness ≥ k, so they
must also return the same vertex sets in the same order.
"""
from __future__ import annotations

import random

import pytest

from repro.core.baseline import atindex_offline, atindex_query
from repro.core.topl import Query, brute_force_topl, topl_icde
from repro.experiments import params as P
from repro.experiments.datasets import prepare

DATASETS = {
    "dblp": dict(kind="dblp"),
    "amazon": dict(kind="amazon"),
    "nws-zipf": dict(kind="nws", dist="zipf"),
}


@pytest.fixture(scope="module", params=list(DATASETS))
def prep(request, spark):
    prep = prepare(spark, n=120, seed=3, **DATASETS[request.param])
    return prep, atindex_offline(spark, prep.graph)


def random_queries(count: int, seed: int):
    rng = random.Random(seed)
    for i in range(count):
        yield Query(
            keywords=P.query_keywords(qsize=rng.choice(P.SWEEP_Q), seed=1000 * seed + i),
            k=rng.choice(P.SWEEP_K),
            r=rng.choice(P.SWEEP_R),
            theta=rng.choice((0.1, 0.15, 0.2, 0.3, 0.45)),
            L=rng.randint(1, 10),
        )


def sigmas(answer):
    return [round(c.sigma, 6) for c in answer]


@pytest.mark.parametrize("qseed", [0, 1, 2])
def test_three_methods_agree(prep, qseed):
    prep, vtruss = prep
    for q in random_queries(4, qseed):
        fast = topl_icde(prep.local, prep.index, q, prep.pre.thetas)
        brute = brute_force_topl(prep.local, q)
        atindex = atindex_query(prep.local, vtruss, q)
        assert sigmas(fast) == sigmas(brute) == sigmas(atindex), q
        assert [c.vertices for c in brute] == [c.vertices for c in atindex], q


def test_queries_have_answers(prep):
    """Guard against a vacuous comparison: some draws find communities."""
    prep, _ = prep
    found = [
        brute_force_topl(prep.local, q)
        for seed in (0, 1, 2)
        for q in random_queries(4, seed)
    ]
    assert sum(1 for a in found if a) >= 3
