"""ATindex baseline: must return exactly the brute-force answers (it prunes
by trussness + keyword but refines everything surviving)."""
from __future__ import annotations

import dataclasses
import itertools

import networkx as nx
import numpy as np
import pytest

from repro.core import diversify
from repro.core.baseline import atindex_offline, atindex_query, edge_trussness
from repro.core.topl import Community, Query, brute_force_topl, topl_icde
from repro.graph import generators as gen
from repro.graph.local import LocalGraph
from tests.test_local_graph import make_local


@pytest.fixture(scope="module")
def vtruss(spark, prepared_small):
    return atindex_offline(spark, prepared_small.graph)


def q_default(**overrides):
    base = dict(keywords=frozenset({"kw0", "kw1", "kw2", "kw3", "kw4"}), k=4, r=2, theta=0.2, L=5)
    base.update(overrides)
    return Query(**base)


def test_answers_carry_cpp_after_warm_memo(prepared_small, vtruss, monkeypatch):
    """Once the σ memo holds every community, the answers of every online
    path, DTopL's top-(n·L) pool included, still carry their influenced
    communities."""
    local, index, thetas = prepared_small.local, prepared_small.index, prepared_small.pre.thetas
    pools = []
    greedy_wp = diversify.greedy_wp

    def capture(candidates, L, stats=None):
        pools.append(list(candidates))
        return greedy_wp(candidates, L, stats)

    monkeypatch.setattr(diversify, "greedy_wp", capture)
    for q in (q_default(L=10, theta=0.15), q_default(k=3, r=1, L=8)):
        brute_force_topl(local, dataclasses.replace(q, L=50))
        warm = set(local.sigma_memo)
        answers = {
            "topl": topl_icde(local, index, q, thetas),
            "brute": brute_force_topl(local, q),
            "atindex": atindex_query(local, vtruss, q),
        }
        diversify.dtopl_icde(local, index, q, thetas, n=3)
        answers["pool"] = pools.pop()
        for name, got in answers.items():
            assert got and all((c.vertices, q.theta) in warm for c in got), name
            for c in got:
                assert c.cpp == local.influence(c.vertices, q.theta), name


def test_no_influence_call_on_a_warm_memo(prepared_small, vtruss, monkeypatch):
    """Once the σ memo holds every community and component bound, the TopL
    paths make no influence call: an answer's ``cpp`` is computed on its
    first read unless the cpp memo holds its (g, θ), equal to
    ``local.influence(g, θ)``, and ``repr`` and ``==`` compute nothing. On a
    fresh snapshot, ``topl_icde`` calls influence at most once per distinct
    (g, θ)."""
    local, index, thetas = prepared_small.local, prepared_small.index, prepared_small.pre.thetas
    influence, calls = LocalGraph.influence, []

    def counting(self, seed, theta):
        calls.append((frozenset(seed), theta))
        return influence(self, seed, theta)

    monkeypatch.setattr(LocalGraph, "influence", counting)
    queries = (q_default(L=10, theta=0.15), q_default(k=3, r=1, L=8), q_default())
    for q in queries:
        brute_force_topl(local, dataclasses.replace(q, L=50))
        topl_icde(local, index, q, thetas)
        calls.clear()
        answers = {
            "topl": topl_icde(local, index, q, thetas),
            "brute": brute_force_topl(local, q),
            "atindex": atindex_query(local, vtruss, q),
        }
        assert calls == [], q
        for name, got in answers.items():
            assert got, name
            assert all("cpp" not in repr(c) for c in got), name
            assert all(c == Community(c.center, c.vertices, c.sigma) for c in got), name
            assert calls == [], name
            for c in got:
                read = (c.vertices, q.theta) in local.cpp_memo
                assert c.cpp == influence(local, c.vertices, q.theta), name
                assert calls == ([] if read else [(c.vertices, q.theta)]), name
                assert c.cpp == influence(local, c.vertices, q.theta), name
                assert (c.vertices, q.theta) in local.cpp_memo, name
                calls.clear()

    g = LocalGraph(adj=local.adj, out=local.out, keywords=local.keywords, bv=local.bv)
    for q in queries:
        topl_icde(g, index, q, thetas)
    assert calls and len(calls) == len(set(calls)), calls


def test_vertex_trussness_sound(vtruss, prepared_small):
    """Every vertex of the maximal k-truss has vertex-trussness ≥ k."""
    local = prepared_small.local
    vs, _ = local.ktruss(set(local.adj), 4)
    for v in vs:
        assert vtruss.get(v, 2) >= 4


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("L", [3, 5])
def test_matches_brute_force(prepared_small, vtruss, k, L):
    q = q_default(k=k, L=L)
    got = atindex_query(prepared_small.local, vtruss, q)
    want = brute_force_topl(prepared_small.local, q)
    assert [round(c.sigma, 6) for c in got] == [round(c.sigma, 6) for c in want]


def test_matches_index_approach(prepared_small, vtruss):
    from repro.core.topl import topl_icde

    q = q_default()
    a = atindex_query(prepared_small.local, vtruss, q)
    b = topl_icde(prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas)
    assert [round(c.sigma, 6) for c in a] == [round(c.sigma, 6) for c in b]


def test_sampling_returns_subset_quality(prepared_small, vtruss):
    """A sampled run returns communities whose σ never beats the full run's
    top-1 (it sees fewer centers)."""
    q = q_default()
    full = atindex_query(prepared_small.local, vtruss, q)
    sampled = atindex_query(prepared_small.local, vtruss, q, sample=0.3, seed=1)
    if full and sampled:
        assert sampled[0].sigma <= full[0].sigma + 1e-9
    assert len(sampled) <= len(full)


@pytest.mark.parametrize(
    "q",
    [q_default(keywords=frozenset({"nope"})), q_default(k=30)],
    ids=["no-keyword", "k-above-trussness"],
)
def test_sampling_without_candidates_is_empty(prepared_small, vtruss, q):
    """No center survives the trussness + keyword filter: nothing to sample."""
    assert atindex_query(prepared_small.local, vtruss, q, sample=0.3, seed=1) == []


@pytest.mark.parametrize("sample", [0.0, -0.5, 1.5, float("nan")])
def test_sample_outside_unit_interval_raises(prepared_small, vtruss, sample):
    """f = 0 would divide the extrapolated time by zero, and f < 0 would
    report a negative time."""
    with pytest.raises(ValueError, match="sample"):
        atindex_query(prepared_small.local, vtruss, q_default(), sample=sample)


def test_sample_one_is_the_full_run(prepared_small, vtruss):
    q = q_default()
    full = atindex_query(prepared_small.local, vtruss, q)
    assert atindex_query(prepared_small.local, vtruss, q, sample=1.0) == full


def complete_graph(spark, n):
    """K_n as a SocialGraph and its snapshot; every vertex holds ``kw0``."""
    verts = gen.vertices_pdf([["kw0"]] * n)
    edges = gen.directed_weighted_edges(np.array(list(itertools.combinations(range(n), 2))))
    return gen.build_social_graph(spark, verts, edges), LocalGraph.from_pandas(verts, edges)


def test_trussness_above_twenty(spark):
    """K23 has trussness 23, and ATindex answers a k = 22 query on it."""
    graph, local = complete_graph(spark, 23)
    vtruss = atindex_offline(spark, graph)
    assert vtruss == dict.fromkeys(range(23), 23)
    q = Query(keywords=frozenset({"kw0"}), k=22, r=1, theta=0.2, L=5)
    got = atindex_query(local, vtruss, q)
    want = brute_force_topl(local, q)
    assert got
    assert [(c.vertices, round(c.sigma, 6)) for c in got] == [
        (c.vertices, round(c.sigma, 6)) for c in want
    ]


def test_edge_trussness_levels():
    # K5 (trussness 5) glued to a triangle (trussness 3) at vertex 4
    g = make_local(list(itertools.combinations(range(5), 2)) + [(4, 5), (5, 6), (4, 6)])
    t = edge_trussness(g)
    for e in itertools.combinations(range(5), 2):
        assert t[e] == 5
    assert t[(4, 5)] == t[(5, 6)] == t[(4, 6)] == 3


def test_atindex_offline_vertex_trussness(spark):
    """A vertex takes the largest trussness of its edges; isolated ones are
    absent."""
    pairs = list(itertools.combinations(range(4), 2)) + [(3, 5)]
    verts = gen.vertices_pdf([["kw0"]] * 7)  # vertices 4 and 6 are isolated
    edges = gen.directed_weighted_edges(np.array(pairs))
    vt = atindex_offline(spark, gen.build_social_graph(spark, verts, edges))
    assert vt == {0: 4, 1: 4, 2: 4, 3: 4, 5: 2}


def clique_affiliation_local():
    """300 vertices of DBLP-style overlapping cliques."""
    return make_local([tuple(e) for e in gen.clique_affiliation_edges(300, 240, seed=7)])


@pytest.mark.parametrize("graph", ["nws", "cliques"])
def test_peel_matches_networkx(local_small, graph):
    """The k-truss peel and the trussness levels against an independent
    implementation (``networkx.k_truss``)."""
    local = local_small if graph == "nws" else clique_affiliation_local()
    nxg = nx.Graph(local.undirected_edges())
    t = edge_trussness(local)
    for k in range(2, 9):
        want = {(min(e), max(e)) for e in nx.k_truss(nxg, k).edges}
        _, got = local.ktruss(set(local.adj), k)
        assert got == want, k
        assert {e for e, te in t.items() if te >= k} == want, k
