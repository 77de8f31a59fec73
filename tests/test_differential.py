"""Differential exactness over several generators and random queries.

``topl_icde`` (index + pruning), ``brute_force_topl`` (no pruning) and
``atindex_query`` (trussness filter) must return the same ranked σ lists on
the clique-affiliation stand-ins and on Zipf keywords, not only on the NWS
Uniform fixture: 42 seeded random queries per graph, each graph built
through ``build_social_graph → offline_precompute → build_index`` at 120
vertices. On the clique-affiliation graphs the components of T_k(G_Q) are
large, so the component σ bound of ``topl_icde`` is loosest there. The last
two share the refinement kernel and the ranking
rule, and every center of a k-truss community has trussness ≥ k, so they
must also return the same vertex sets in the same order.

Two hand-made graphs go through the same offline pipeline: tied σ (two
disjoint isomorphic K5s), where a discovery-order bug would show, and
weights of 0.999, where every path clears θ and the σ bounds are loosest.
"""
from __future__ import annotations

import itertools
import random

import numpy as np
import pandas as pd
import pytest

from repro.core import diversify
from repro.core.baseline import atindex_offline, atindex_query
from repro.core.index import build_index
from repro.core.keywords import bv_of
from repro.core.precompute import offline_precompute
from repro.core.topl import Query, brute_force_topl, topl_icde
from repro.experiments import params as P
from repro.experiments.datasets import prepare
from repro.graph import generators as gen
from repro.graph.local import LocalGraph

DATASETS = {
    "dblp": dict(kind="dblp"),
    "amazon": dict(kind="amazon"),
    "nws-zipf": dict(kind="nws", dist="zipf"),
}


@pytest.fixture(scope="module", params=list(DATASETS))
def prep(request, spark):
    prep = prepare(spark, n=120, seed=3, **DATASETS[request.param])
    return prep, atindex_offline(spark, prep.graph)


#: 3 query seeds × 14 = 42 random queries per generated graph
QUERIES_PER_SEED = 14


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
    for q in random_queries(QUERIES_PER_SEED, qseed):
        fast = topl_icde(prep.local, prep.index, q, prep.pre.thetas)
        brute = brute_force_topl(prep.local, q)
        atindex = atindex_query(prep.local, vtruss, q)
        assert sigmas(fast) == sigmas(brute) == sigmas(atindex), q
        assert [c.vertices for c in brute] == [c.vertices for c in atindex], q


def test_reported_centers_extract_their_sets(prep, monkeypatch):
    """Every community reported by ``topl_icde``, the pool ``dtopl_icde``
    selects from, ``brute_force_topl`` and ``atindex_query`` is the seed
    community that the full graph extracts at its reported center."""
    prep, vtruss = prep
    pools = []
    select = diversify.greedy_wp

    def recording(candidates, L, stats=None):
        pools.append(list(candidates))
        return select(candidates, L, stats)

    monkeypatch.setattr(diversify, "greedy_wp", recording)
    local, checked = prep.local, 0
    for q in random_queries(QUERIES_PER_SEED, 0):
        diversify.dtopl_icde(local, prep.index, q, prep.pre.thetas, n=2)
        for answer in (
            topl_icde(local, prep.index, q, prep.pre.thetas),
            pools.pop(),
            brute_force_topl(local, q),
            atindex_query(local, vtruss, q),
        ):
            for c in answer:
                assert local.seed_community(c.center, q.r, q.k, q.keywords) == c.vertices, (q, c.center)
                checked += 1
    assert checked


def truss_centers_pass_row_tests(pre, local, queries) -> int:
    """Every center of T_k(G_Q) passes the tests the index no longer makes:
    on every radius ``ub_sup_r ≥ k − 2`` (Lemmas 2/6), and ``bv_self``
    meets Q (Lemmas 1/5). So neither could prune a subtree that holds one.
    Returns the number of centers checked."""
    checked = 0
    for q in queries:
        centers = local.keyword_truss(q.keywords, q.k).adj
        rows = pre.pdf[pre.pdf["vertex"].isin(list(centers))]
        assert len(rows) == len(centers) * pre.r_max, q
        assert (rows["ub_sup_r"] >= q.k - 2).all(), q
        assert ((rows["bv_self"] & bv_of(q.keywords)) != 0).all(), q
        checked += len(centers)
    return checked


def all_random_queries():
    return [q for seed in (0, 1, 2) for q in random_queries(QUERIES_PER_SEED, seed)]


def test_truss_centers_pass_the_dropped_index_tests(prep):
    prep, _ = prep
    assert truss_centers_pass_row_tests(prep.pre, prep.local, all_random_queries()) > 0


def test_truss_centers_pass_the_dropped_index_tests_nws_uniform(prepared_small):
    p = prepared_small
    assert truss_centers_pass_row_tests(p.pre, p.local, all_random_queries()) > 0


def test_hand_made_truss_centers_pass_the_dropped_index_tests(hand_made):
    local, _, _, pre = hand_made
    vocab = sorted({w for kws in local.keywords.values() for w in kws})
    queries = [Query(frozenset({w}), k, 1, 0.2, 1) for w in vocab for k in (2, 3, 4, 5)]
    assert truss_centers_pass_row_tests(pre, local, queries) > 0


def test_queries_have_answers(prep):
    """Guard against a vacuous comparison: some draws find communities."""
    prep, _ = prep
    found = [
        brute_force_topl(prep.local, q)
        for seed in (0, 1, 2)
        for q in random_queries(4, seed)
    ]
    assert sum(1 for a in found if a) >= 3


def two_tied_k5s():
    """K5s on 0..4 and 5..9, every vertex holding kw1, every weight 0.55."""
    verts = gen.vertices_pdf([["kw1", f"kw{2 + v % 2}"] for v in range(10)])
    pairs = [
        (a + base, b + base)
        for base in (0, 5)
        for a, b in itertools.combinations(range(5), 2)
    ]
    return verts, gen.directed_weighted_edges(np.array(pairs)).assign(weight=0.55)


def weights_near_one():
    """A 30-vertex clique-affiliation graph with every weight 0.999."""
    und = gen.clique_affiliation_edges(30, n_cliques=24, seed=21)
    verts = gen.vertices_pdf(gen.assign_keywords(30, 4, 2, "uniform", seed=22))
    return verts, gen.directed_weighted_edges(und).assign(weight=0.999)


@pytest.fixture(
    scope="module", params=[two_tied_k5s, weights_near_one], ids=["tied-sigma", "weights-0.999"]
)
def hand_made(request, spark):
    verts, edges = request.param()
    graph = gen.build_social_graph(spark, verts, edges)
    pre = offline_precompute(spark, graph, r_max=P.R_MAX, thetas=P.THETAS)
    local = LocalGraph.from_pandas(verts, edges)
    return local, build_index(pre), atindex_offline(spark, graph), pre


def test_hand_made_graphs_agree(hand_made):
    local, index, vtruss, _ = hand_made
    vocab = sorted({w for kws in local.keywords.values() for w in kws})
    rng = random.Random(23)
    answered = 0
    for _ in range(40):
        q = Query(
            keywords=frozenset(rng.sample(vocab, rng.randint(1, 2))),
            k=rng.randint(2, 5),
            r=rng.randint(1, 3),
            theta=rng.choice((0.1, 0.2, 0.3, 0.45)),
            L=rng.randint(1, 4),
        )
        fast = topl_icde(local, index, q, P.THETAS)
        brute = brute_force_topl(local, q)
        atindex = atindex_query(local, vtruss, q)
        assert sigmas(fast) == sigmas(brute) == sigmas(atindex), q
        assert [c.vertices for c in brute] == [c.vertices for c in atindex], q
        answered += bool(brute)
    assert answered >= 10, "too few queries found a community"


def test_tied_sigma_is_a_tie():
    """Guard: the two K5s really tie, so L=1 must pick between equals."""
    local = LocalGraph.from_pandas(*two_tied_k5s())
    a, b = brute_force_topl(local, Query(frozenset({"kw1"}), 5, 1, 0.2, 2))
    assert {a.vertices, b.vertices} == {frozenset(range(5)), frozenset(range(5, 10))}
    assert round(a.sigma, 9) == round(b.sigma, 9)


def tied_k5s_and_a_pendant():
    """The two tied K5s, and vertex 10 (kw9 only) hanging off vertex 5 by
    edges of weight 0.01. The hop balls of 5..9 score higher, so the index
    reaches the K5 on 5..9 first, yet at θ ≥ 0.1 both K5s still score
    exactly 5."""
    verts, edges = two_tied_k5s()
    verts = gen.vertices_pdf([*verts["keywords"], ["kw9"]])
    pendant = gen.directed_weighted_edges(np.array([(5, 10)])).assign(weight=0.01)
    return verts, pd.concat([edges, pendant], ignore_index=True)


@pytest.mark.parametrize(
    "hand_made", [tied_k5s_and_a_pendant], indirect=True, ids=["tied-pendant"]
)
def test_tied_answers_in_rank_order(hand_made):
    """With room for both K5s, the traversal and the reference return the
    same centers in the same order: both rank by (−σ, center), not by the
    order in which the traversal found them."""
    local, index, _, _ = hand_made
    for k, r, theta in ((3, 1, 0.2), (5, 1, 0.2), (4, 2, 0.1), (5, 3, 0.3)):
        q = Query(frozenset({"kw1"}), k, r, theta, L=3)
        fast = topl_icde(local, index, q, P.THETAS)
        brute = brute_force_topl(local, q)
        assert [c.sigma for c in brute] == [5.0, 5.0], q
        assert [(c.center, c.vertices) for c in fast] == [
            (c.center, c.vertices) for c in brute
        ], q
