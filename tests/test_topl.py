"""Online TopL-ICDE processing (Algorithm 3) — exactness and behaviour."""
from __future__ import annotations

import pytest

from repro.core.pruning import PruningStats
from repro.core.topl import Community, Query, brute_force_topl, rank, refine, topl_icde
from repro.graph.local import LocalGraph
from tests.test_local_graph import fresh


def run(prep, q, **kw):
    return topl_icde(prep.local, prep.index, q, prep.pre.thetas, **kw)


def q_default(**overrides):
    base = dict(keywords=frozenset({"kw0", "kw1", "kw2", "kw3", "kw4"}), k=4, r=2, theta=0.2, L=5)
    base.update(overrides)
    return Query(**base)


class TestExactness:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_varying_k(self, prepared_small, k):
        q = q_default(k=k)
        got = run(prepared_small, q)
        want = brute_force_topl(prepared_small.local, q)
        assert [round(c.sigma, 6) for c in got] == [round(c.sigma, 6) for c in want]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_varying_r(self, prepared_small, r):
        q = q_default(r=r)
        got = run(prepared_small, q)
        want = brute_force_topl(prepared_small.local, q)
        assert [round(c.sigma, 6) for c in got] == [round(c.sigma, 6) for c in want]

    @pytest.mark.parametrize("theta", [0.1, 0.2, 0.25, 0.3, 0.5])
    def test_varying_theta(self, prepared_small, theta):
        q = q_default(theta=theta)
        got = run(prepared_small, q)
        want = brute_force_topl(prepared_small.local, q)
        assert [round(c.sigma, 6) for c in got] == [round(c.sigma, 6) for c in want]

    @pytest.mark.parametrize("L", [1, 2, 5, 10, 50])
    def test_varying_L(self, prepared_small, L):
        q = q_default(L=L)
        got = run(prepared_small, q)
        want = brute_force_topl(prepared_small.local, q)
        assert [round(c.sigma, 6) for c in got] == [round(c.sigma, 6) for c in want]

    @pytest.mark.parametrize(
        "kws",
        [frozenset({"kw0"}), frozenset({"kw1", "kw7"}), frozenset(f"kw{i}" for i in range(10))],
        ids=["one", "two", "ten"],
    )
    def test_varying_keywords(self, prepared_small, kws):
        q = q_default(keywords=kws)
        got = run(prepared_small, q)
        want = brute_force_topl(prepared_small.local, q)
        assert [round(c.sigma, 6) for c in got] == [round(c.sigma, 6) for c in want]


class TestBehaviour:
    def test_results_sorted_descending(self, prepared_small):
        got = run(prepared_small, q_default(L=10))
        sigmas = [c.sigma for c in got]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_at_most_L(self, prepared_small):
        assert len(run(prepared_small, q_default(L=3))) <= 3

    def test_no_duplicate_vertex_sets(self, prepared_small):
        got = run(prepared_small, q_default(L=20))
        sets = [c.vertices for c in got]
        assert len(sets) == len(set(sets))

    def test_every_answer_is_valid_community(self, prepared_small):
        q = q_default(L=10)
        local = prepared_small.local
        got = run(prepared_small, q)
        assert got, "expected at least one community on the fixture graph"
        for c in got:
            assert c.center in c.vertices
            for v in c.vertices:
                assert local.keywords[v] & q.keywords
            sup = local.induced_support(set(c.vertices))
            assert all(s >= q.k - 2 for s in sup.values())
            dist = local.khop(c.center, len(c.vertices), allowed=set(c.vertices))
            assert set(dist) == set(c.vertices) and max(dist.values()) <= q.r

    def test_sigma_matches_cpp(self, prepared_small):
        for c in run(prepared_small, q_default()):
            assert c.sigma == pytest.approx(sum(c.cpp.values()))
            assert all(p >= 0.2 for p in c.cpp.values())

    def test_impossible_keywords_empty(self, prepared_small):
        got = run(prepared_small, q_default(keywords=frozenset({"nope"})))
        assert got == []

    def test_huge_k_empty(self, prepared_small):
        assert run(prepared_small, q_default(k=30)) == []

    def test_radius_out_of_range_raises(self, prepared_small):
        r_max = prepared_small.pre.r_max
        assert run(prepared_small, q_default(r=r_max))
        with pytest.raises(ValueError, match=f"outside precomputed \\[1, {r_max}\\]"):
            run(prepared_small, q_default(r=r_max + 1))

    def test_theta_below_grid_raises(self, prepared_small):
        with pytest.raises(ValueError):
            run(prepared_small, q_default(theta=0.01))

    def test_stats_visited_nodes_positive(self, prepared_small):
        st = PruningStats()
        run(prepared_small, q_default(), stats=st)
        assert st.visited_nodes > 0

    def test_l1_is_global_max(self, prepared_small):
        top1 = run(prepared_small, q_default(L=1))
        top10 = run(prepared_small, q_default(L=10))
        assert top1[0].sigma == pytest.approx(top10[0].sigma)

    def test_larger_L_extends_prefix(self, prepared_small):
        small = run(prepared_small, q_default(L=3))
        large = run(prepared_small, q_default(L=8))
        assert [round(c.sigma, 6) for c in small] == [
            round(c.sigma, 6) for c in large[:3]
        ]


def test_repeated_query_builds_no_arborescence(prepared_small, builds):
    """A query asked again at the same θ finds every source's influence
    arborescence in the memo that the keyword truss view shares."""
    q = q_default(theta=0.15)
    want = run(prepared_small, q)
    assert want
    builds.clear()
    got = run(prepared_small, q)
    assert builds == []
    assert [(c.vertices, c.sigma, c.cpp) for c in got] == [
        (c.vertices, c.sigma, c.cpp) for c in want
    ]


def test_rank_keeps_smallest_center_per_vertex_set():
    """``rank`` merges refinement results from several workers: one entry
    per vertex set (its smallest center), ordered by (−σ, center)."""
    late = Community(center=5, vertices=frozenset({1, 5}), sigma=2.0)
    early = Community(center=1, vertices=frozenset({1, 5}), sigma=2.0)
    tie = Community(center=3, vertices=frozenset({3, 6}), sigma=2.0)
    best = Community(center=4, vertices=frozenset({4, 7}), sigma=3.0)
    assert rank([late, None, tie, early, best], 2) == [best, early]
    assert rank([late, tie, early, best], 10) == [best, early, tie]


@pytest.mark.parametrize(
    "bad",
    [
        dict(L=0),
        dict(k=1),
        dict(r=0),
        dict(theta=0.0),
        dict(theta=1.5),
        dict(keywords=frozenset()),
    ],
    ids=["L0", "k1", "r0", "theta0", "theta-above-1", "empty-Q"],
)
def test_query_rejects_invalid_parameters(bad):
    """Def. 4 needs L ≥ 1, k ≥ 2, r ≥ 1, θ ∈ (0, 1] and a non-empty Q; an
    L = 0 query used to reach the top-L buffer and fail with IndexError."""
    with pytest.raises(ValueError):
        q_default(**bad)


def test_query_accepts_boundary_values():
    q_default(L=1, k=2, r=1, theta=1.0, keywords=frozenset({"kw0"}))


def test_community_cpp_is_computed_once(prepared_small, monkeypatch):
    """A community scored on a graph computes its influenced community on
    the first read, into the snapshot's memo, and every later read is a
    fresh dict from there; without a graph, reading it raises rather than
    reading {}."""
    local = fresh(prepared_small.local)
    g = frozenset(local.adj[3] | {3})
    want = local.influence(g, 0.2)
    influence, calls = LocalGraph.influence, []

    def counting(self, seed, theta):
        calls.append((frozenset(seed), theta))
        return influence(self, seed, theta)

    monkeypatch.setattr(LocalGraph, "influence", counting)
    scored = Community(3, g, local.sigma(g, 0.2), local, 0.2)
    calls.clear()
    first = scored.cpp
    assert first == want and calls == [(g, 0.2)]
    assert scored.cpp == want and scored.cpp is not first and len(calls) == 1
    with pytest.raises(ValueError):
        Community(3, g, 1.0).cpp
    with pytest.raises(ValueError):
        Community(3, g, 1.0).rows
    with pytest.raises(ValueError):
        Community(3, g, 1.0, graph=local)


def test_community_equality_ignores_graph_and_theta(prepared_small):
    """``==`` and ``hash`` cover center, vertices and σ; an answer holds the
    snapshot it was scored on, also when it was extracted through the
    query's keyword truss."""
    local = prepared_small.local
    q = Query(keywords=frozenset({"kw0", "kw1"}), k=3, r=2, theta=0.3, L=1)
    truss = local.keyword_truss(q.keywords, q.k)
    v = min(truss.adj)
    found = refine(local, v, q, set(), truss)
    assert found.graph is local and found.theta == 0.3
    g = frozenset({3, 5})
    bare = Community(3, g, 1.5)
    scored = [Community(3, g, 1.5, local, 0.2), Community(3, g, 1.5, local, 0.3)]
    for c in scored:
        assert c == bare and hash(c) == hash(bare)
        assert c.graph is local
    assert len({bare, *scored}) == 1
    assert Community(4, g, 1.5) != bare and Community(3, g, 1.0) != bare
    want = "Community(center=3, vertices=frozenset({3, 5}), sigma=1.5)"
    assert repr(bare) == repr(scored[0]) == want
