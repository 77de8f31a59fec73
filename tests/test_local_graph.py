"""Tests for the driver-side reference algorithms (graph/local.py).

Brute-force checks on hand-built graphs (paths, rings, cliques) plus
property checks on generated graphs.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import random

import networkx as nx
import pandas as pd
import pytest

from repro.core import topl as topl_module
from repro.core.index import build_index
from repro.core.keywords import bv_of
from repro.core.precompute import NO_EDGE_SUPPORT, Precomputed, z_index
from repro.core.topl import Query, brute_force_topl, rank, refine, topl_icde
from repro.experiments import params as P
from repro.graph import generators as gen
from repro.graph.local import LocalGraph, _Peel


def make_local(und_edges, n=None, keywords=None, weights=None) -> LocalGraph:
    """Build a LocalGraph from an undirected edge list (both orientations
    get weight ``weights.get((u,v), 0.55)``)."""
    vs = sorted({u for e in und_edges for u in e} | set(range(n or 0)))
    kws = keywords or {v: ["kw0"] for v in vs}
    verts = pd.DataFrame(
        {
            "id": vs,
            "keywords": [kws.get(v, ["kw0"]) for v in vs],
            "bv": [bv_of(kws.get(v, ["kw0"])) for v in vs],
        }
    )
    rows = []
    w = weights or {}
    for u, v in und_edges:
        rows.append((u, v, w.get((u, v), 0.55)))
        rows.append((v, u, w.get((v, u), 0.55)))
    edges = pd.DataFrame(rows, columns=["src", "dst", "weight"])
    return LocalGraph.from_pandas(verts, edges)


def reference_seed_community(g: LocalGraph, center, r, k, query):
    """Def. 2 fixpoint written plainly: r-hop ball, keyword filter, r-hop
    ball through matching vertices, then repeat {peel by recounting support,
    component of the center, radius BFS inside it} until the set is stable."""
    if not (g.keywords[center] & query):
        return None
    allowed = {v for v in g.khop(center, r) if g.keywords[v] & query}
    cur = set(g.khop(center, r, allowed=allowed))
    while cur:
        edges = {(u, v) for u in cur for v in g.adj[u] if v in cur and u < v}
        while True:
            nbr = {v: set() for v in cur}
            for u, v in edges:
                nbr[u].add(v)
                nbr[v].add(u)
            weak = {(u, v) for u, v in edges if len(nbr[u] & nbr[v]) < k - 2}
            if not weak:
                break
            edges -= weak
        if not nbr[center]:
            return None
        comp, stack = {center}, [center]
        while stack:
            for v in nbr[stack.pop()] - comp:
                comp.add(v)
                stack.append(v)
        dist = {center: 0}
        frontier = [center]
        for d in range(1, r + 1):
            frontier = [v for u in frontier for v in nbr[u] if v in comp and v not in dist]
            dist.update((v, d) for v in frontier)
        if set(dist) == cur:
            return frozenset(cur)
        cur = set(dist)
    return None


@pytest.fixture(scope="module")
def generated_graphs(local_small, local_medium):
    """NWS Uniform (120 and 400 vertices), NWS Zipf and clique-affiliation."""
    cliques = gen.clique_affiliation_edges(200, n_cliques=200, seed=13)
    return [
        local_small,
        local_medium,
        LocalGraph.from_pandas(*gen.pandas_social_network(200, dist="zipf", seed=11)),
        LocalGraph.from_pandas(
            gen.vertices_pdf(gen.assign_keywords(200, 20, 3, "uniform", seed=14)),
            gen.directed_weighted_edges(cliques, seed=15),
        ),
    ]


def fresh(g: LocalGraph) -> LocalGraph:
    """The same graph with an empty influence memo."""
    return LocalGraph(adj=g.adj, out=g.out, keywords=g.keywords, bv=g.bv)


def edges_of(nbr):
    """The canonical (u < v) edges of the neighbour map ``nbr``."""
    return {(u, v) for u, nu in nbr.items() for v in nu if u < v}


def truss_graph(g: LocalGraph, truss) -> LocalGraph:
    """A snapshot whose edges are the keyword truss's, with ``g``'s
    influence edges and keywords."""
    return LocalGraph(adj=truss.adj, out=g.out, keywords=g.keywords, bv=g.bv)


def extraction_path(truss, center, got, peels, started):
    """Which path of ``seed_community`` given ``truss`` gave ``got``: a
    peel (``_Peel`` built since ``len(peels) == started``), the component
    shortcut, or the ring test."""
    if len(peels) > started:
        return "peel"
    return "component" if got == truss.components[center] else "ring"


class KeyedCenters(dict):
    """A ``ball_memo`` entry that records, in ``keyed``, each center of
    T_k(G_Q) that ``topl_icde`` keys: it reads the entry once per center."""

    def __init__(self, entries, keyed):
        super().__init__(entries)
        self.keyed = keyed

    def get(self, v, default=None):
        self.keyed.append(v)
        return super().get(v, default)


def record_keyed(g: LocalGraph, q, keyed) -> None:
    """Record in ``keyed`` each center ``topl_icde(g, ..., q)`` keys."""
    at = (q.k, q.r, q.theta)
    g.ball_memo[at] = KeyedCenters(g.ball_memo.get(at, {}), keyed)


K5_EDGES = list(itertools.combinations(range(5), 2))
K4_EDGES = list(itertools.combinations(range(4), 2))
PATH = [(0, 1), (1, 2), (2, 3), (3, 4)]
RING6 = [(i, (i + 1) % 6) for i in range(6)]


class TestBFS:
    def test_path_distances(self):
        g = make_local(PATH)
        assert g.khop(0, 10) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_radius_cut(self):
        g = make_local(PATH)
        assert set(g.khop(0, 2)) == {0, 1, 2}

    def test_ring_wraps(self):
        g = make_local(RING6)
        assert g.khop(0, 3)[3] == 3
        assert g.khop(0, 3)[5] == 1

    def test_allowed_restriction(self):
        g = make_local(PATH)
        # vertex 2 blocked → 3, 4 unreachable
        assert set(g.khop(0, 10, allowed={0, 1, 3, 4})) == {0, 1}

    def test_allowed_excluding_center(self):
        g = make_local(PATH)
        assert g.khop(0, 2, allowed={1, 2}) == {}

    def test_missing_center(self):
        g = make_local(PATH)
        assert g.khop(99, 2) == {}

    def test_khop_within(self):
        g = make_local(K5_EDGES)
        assert g.khop(0, 3, allowed={0, 1, 2}) == {0: 0, 1: 1, 2: 1}


class TestSupportAndTruss:
    def test_k5_support(self):
        g = make_local(K5_EDGES)
        sup = g.induced_support(set(range(5)))
        assert all(s == 3 for s in sup.values())  # each edge in 3 triangles

    def test_support_is_whole_graph_count(self):
        """``support`` counts on the snapshot's own edges: the whole graph,
        or a snapshot built on a keyword truss's peeled edges."""
        g = make_local(K4_EDGES + [(0, 4)])
        want = {e: 2 for e in K4_EDGES}
        assert g.support == {**want, (0, 4): 0}
        assert truss_graph(g, g.keyword_truss({"kw0"}, 4)).support == want

    def test_path_support_zero(self):
        g = make_local(PATH)
        sup = g.induced_support(set(range(5)))
        assert all(s == 0 for s in sup.values())

    def test_k5_is_5truss(self):
        g = make_local(K5_EDGES)
        vs, es = g.ktruss(set(range(5)), 5)
        assert vs == set(range(5)) and len(es) == 10

    def test_k5_not_6truss(self):
        g = make_local(K5_EDGES)
        vs, es = g.ktruss(set(range(5)), 6)
        assert vs == set() and es == set()

    def test_k4_is_4truss(self):
        g = make_local(list(itertools.combinations(range(4), 2)))
        vs, es = g.ktruss(set(range(4)), 4)
        assert vs == set(range(4)) and len(es) == 6

    def test_truss_peels_pendant(self):
        # K4 with a pendant vertex 4 attached to 0
        g = make_local(list(itertools.combinations(range(4), 2)) + [(0, 4)])
        vs, es = g.ktruss(set(range(5)), 4)
        assert vs == set(range(4))

    def test_truss_subset_restriction(self):
        g = make_local(K5_EDGES)
        vs, es = g.ktruss({0, 1, 2}, 3)  # triangle on {0,1,2}
        assert vs == {0, 1, 2} and len(es) == 3

    def test_k2_keeps_everything(self):
        g = make_local(PATH)
        vs, es = g.ktruss(set(range(5)), 2)
        assert len(es) == 4

    def test_truss_cascading_peel(self):
        """Removing one weak edge can cascade: a triangle chain is not a 4-truss."""
        g = make_local([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert g.ktruss(set(range(5)), 4) == (set(), set())

    def test_truss_monotone_in_k(self):
        g = make_local(K5_EDGES + [(4, 5), (5, 6), (6, 4)])
        sizes = []
        for k in (2, 3, 4, 5, 6):
            _, es = g.ktruss(set(g.vertices()), k)
            sizes.append(len(es))
        assert sizes == sorted(sizes, reverse=True)

    def test_nws_truss_brute_force(self, local_small):
        """Peeled result is a fixpoint: every surviving edge meets support,
        and it is maximal (re-adding any removed edge breaks the property
        chain — checked by peeling from the full graph again)."""
        vs, es = local_small.ktruss(set(local_small.vertices()), 4)
        sup = make_local(sorted(es)).induced_support(vs)
        assert set(sup) == es
        assert all(s >= 2 for s in sup.values())


class TestComponentAndCore:
    def test_kcore_ring(self):
        g = make_local(RING6)
        assert g.kcore(set(range(6)), 2) == set(range(6))
        assert g.kcore(set(range(6)), 3) == set()

    def test_kcore_k5_plus_tail(self):
        g = make_local(K5_EDGES + [(4, 5), (5, 6)])
        assert g.kcore(set(range(7)), 4) == set(range(5))

    def test_kcore_brute_force_small(self, local_small):
        core = local_small.kcore(set(local_small.vertices()), 4)
        for v in core:
            assert len(local_small.adj[v] & core) >= 4


class TestFromPandas:
    def test_rejects_weight_outside_open_unit_interval(self):
        for w in (0.0, 1.0, 1.5, -0.2, math.nan):
            with pytest.raises(ValueError, match="weight"):
                make_local(PATH, weights={(0, 1): w})

    def test_rejects_duplicate_vertex_id(self):
        verts = pd.DataFrame(
            {"id": [0, 1, 1], "keywords": [["kw0"]] * 3, "bv": [bv_of(["kw0"])] * 3}
        )
        edges = pd.DataFrame({"src": [0], "dst": [1], "weight": [0.5]})
        with pytest.raises(ValueError, match="duplicate"):
            LocalGraph.from_pandas(verts, edges)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            make_local(PATH + [(2, 2)])


class TestInfluence:
    def brute_force_upp(self, g: LocalGraph, src: int, theta: float):
        """Enumerate all simple paths (DFS) and take the max product."""
        best = {src: 1.0}

        def dfs(u, p, seen):
            for v, w in g.out.get(u, []):
                q = p * w
                if q < theta or v in seen:
                    continue
                if q > best.get(v, 0.0):
                    best[v] = q
                dfs(v, q, seen | {v})

        dfs(src, 1.0, {src})
        return {v: p for v, p in best.items() if p >= theta}

    @pytest.mark.parametrize("src", [0, 7, 23])
    @pytest.mark.parametrize("theta", [0.1, 0.3])
    def test_single_source_vs_bruteforce(self, tiny_frames, src, theta):
        verts, edges = tiny_frames
        g = LocalGraph.from_pandas(verts, edges)
        got = g.influence([src], theta)
        want = self.brute_force_upp(g, src, theta)
        assert set(got) == set(want)
        for v in want:
            assert got[v] == pytest.approx(want[v], abs=1e-12)

    def test_multi_source_is_pointwise_max(self, tiny_frames):
        """cpp(g, v) = max over seeds u of upp(u, v), with each upp taken by
        brute-force path enumeration."""
        verts, edges = tiny_frames
        g = LocalGraph.from_pandas(verts, edges)
        seeds = [0, 5, 9]
        for theta in (0.1, 0.15, 0.3):
            got = g.influence(seeds, theta)
            want = {}
            for s in seeds:
                for v, p in self.brute_force_upp(g, s, theta).items():
                    want[v] = max(want.get(v, 0.0), p)
            assert set(got) == set(want)
            for v in want:
                assert got[v] == pytest.approx(want[v], abs=1e-12)

    def test_seeds_have_cpp_one(self, local_small):
        got = local_small.influence([3, 4, 5], 0.2)
        assert got[3] == got[4] == got[5] == 1.0

    def test_threshold_monotone(self, local_small):
        lo = local_small.influence([0], 0.1)
        hi = local_small.influence([0], 0.3)
        assert set(hi) <= set(lo)
        for v in hi:
            assert hi[v] == pytest.approx(lo[v], abs=1e-12)

    def test_sigma_monotone_in_seed_set(self, local_small):
        """σ is monotone under seed growth — the argument for refining only
        the maximal community per center (DESIGN.md §4)."""
        s1 = local_small.sigma([0, 1], 0.2)
        s2 = local_small.sigma([0, 1, 2, 3], 0.2)
        assert s2 >= s1 - 1e-12

    def test_all_values_above_theta(self, local_medium):
        got = local_medium.influence([10], 0.2)
        assert all(p >= 0.2 for p in got.values())

    def test_path_product(self):
        w = {(0, 1): 0.6, (1, 2): 0.5, (2, 3): 0.58}
        g = make_local(PATH, weights=w)
        got = g.influence([0], 0.05)
        assert got[2] == pytest.approx(0.6 * 0.5)
        assert got[3] == pytest.approx(0.6 * 0.5 * 0.58)

    def test_call_history_does_not_change_results(self, local_medium):
        """The memo keeps each source's tree at the lowest θ asked; any
        order of θ gives what a graph with an empty memo gives."""
        rng = random.Random(21)
        vs = sorted(local_medium.adj)
        seed_sets = [rng.sample(vs, rng.randint(1, 12)) for _ in range(20)]
        for thetas in ([0.3, 0.1, 0.3], [0.1, 0.3]):
            g = fresh(local_medium)
            for theta in thetas:
                for s in seed_sets:
                    assert g.influence(s, theta) == fresh(local_medium).influence(s, theta)

    def test_long_path_is_not_recursive(self):
        """A 1,500-vertex path with weights 0.999 keeps every vertex above
        θ = 0.1, so its arborescence is 1,499 levels deep."""
        n = 1500
        edges = [(i, i + 1) for i in range(n - 1)]
        w = {e: 0.999 for u, v in edges for e in ((u, v), (v, u))}
        got = make_local(edges, weights=w).influence([0], 0.1)
        assert len(got) == n
        for d in (1, 10, 750, n - 1):
            assert got[d] == pytest.approx(0.999**d, rel=1e-9)

    def test_sigma_does_not_depend_on_seed_order(self, local_medium):
        """σ of one vertex set is the same float whichever order its
        frozenset was built in: the σ memo keys on the set, so the float
        must not follow the set's iteration order. Each vertex's 2-hop ball
        is built sorted and reverse-sorted."""
        g = fresh(local_medium)
        reordered = 0
        for v in sorted(g.adj):
            ball = sorted(g.khop(v, 2))
            up, down = frozenset(ball), frozenset(reversed(ball))
            reordered += list(up) != list(down)
            assert g.sigma(up, 0.1) == g.sigma(down, 0.1), v
        assert reordered, "no ball iterated in another order"

    def test_returned_dict_is_the_callers(self, local_small):
        """Mutating a result does not reach the memo or a later call."""
        g = fresh(local_small)
        want = g.influence([0, 1, 2], 0.2)
        first = g.influence([0, 1, 2], 0.2)
        first.clear()
        other = g.influence([1, 7], 0.2)
        other[1] = 0.0
        other[7] = 5.0
        assert g.influence([0, 1, 2], 0.2) == want
        assert g.influence([1, 7], 0.2) == fresh(local_small).influence([1, 7], 0.2)


class TestInfluenceMemo:
    def test_keyword_truss_view_shares_memo(self, local_medium, builds):
        """Communities extracted through the keyword truss are scored on the
        snapshot's one influence memo: a second read builds no
        arborescence, and a new source is built once."""
        g = fresh(local_medium)
        query, k, r = {"kw0", "kw1", "kw2", "kw3", "kw4"}, 3, 2
        truss = g.keyword_truss(query, k)
        comms = {g.seed_community(c, r, k, query, truss) for c in truss.adj} - {None}
        assert len(comms) > 5
        warm = [g.influence(c, 0.2) for c in comms]
        assert builds
        builds.clear()
        assert [g.influence(c, 0.2) for c in comms] == warm
        assert builds == []
        other = next(v for v in g.adj if v not in g._arbo)
        g.influence([other], 0.2)
        g.influence([other], 0.2)
        assert builds == [other]

    def test_copies_start_with_empty_memos(self, local_small):
        """Every memo field (outside ``==``) is ``init=False``: a
        ``dataclasses.replace`` copy and a new instance on the same four
        graph fields start with every memo empty, while the warm snapshot
        keeps its own."""
        g = fresh(local_small)
        index, _ = driver_index(g)
        q = TestTrussBallBound.QUERY
        assert [c.cpp for c in topl_icde(g, index, q, P.THETAS)]
        assert g.support
        fields = [f for f in dataclasses.fields(LocalGraph) if not f.compare]
        memos = [f.name for f in fields]
        assert {
            "_arbo", "sigma_memo", "cpp_memo", "_positions", "_order",
            "_support", "_holders", "_trusses", "ball_memo",
        } <= set(memos)
        assert not any(f.init for f in fields)
        warm = {name: getattr(g, name) for name in memos}
        assert all(warm.values()), [name for name, memo in warm.items() if not memo]
        for copy in (dataclasses.replace(g), LocalGraph(g.adj, g.out, g.keywords, g.bv)):
            assert copy == g
            assert {name: getattr(copy, name) for name in memos if getattr(copy, name)} == {}
        for name in memos:
            assert getattr(g, name) is warm[name] and warm[name], name

    def test_lower_theta_rebuilds_touched_sources_only(self, local_medium, builds):
        g = fresh(local_medium)
        warm = sorted(local_medium.adj)[:40]
        for v in warm:
            g.influence([v], 0.3)
        assert builds == warm
        builds.clear()
        low = warm[5:12]
        g.influence(low, 0.1)
        assert sorted(builds) == low
        builds.clear()
        g.influence(warm, 0.3)
        g.influence(low, 0.2)
        assert builds == []
        assert {v for v in warm if g._arbo[v][0] == 0.1} == set(low)


class TestSeedCommunity:
    def kw(self, mapping):
        return {v: kws for v, kws in mapping.items()}

    def test_simple_clique_found(self):
        g = make_local(K5_EDGES, keywords={v: ["kw1"] for v in range(5)})
        got = g.seed_community(0, 2, 4, {"kw1"})
        assert got == frozenset(range(5))

    def test_center_without_keyword_rejected(self):
        kws = {v: ["kw1"] for v in range(5)}
        kws[0] = ["kw9"]
        g = make_local(K5_EDGES, keywords=kws)
        assert g.seed_community(0, 2, 4, {"kw1"}) is None

    def test_keyword_filter_shrinks(self):
        kws = {v: ["kw1"] for v in range(5)}
        kws[4] = ["kw9"]  # vertex 4 filtered out; K4 on {0,1,2,3} remains
        g = make_local(K5_EDGES, keywords=kws)
        got = g.seed_community(0, 2, 4, {"kw1"})
        assert got == frozenset({0, 1, 2, 3})

    def test_truss_too_strict(self):
        g = make_local(K5_EDGES)
        assert g.seed_community(0, 2, 6, {"kw0"}) is None

    def test_radius_enforced_within_g(self):
        # two K4s sharing vertex 3: 0-3 and 3-6; center 0 with r=1 keeps
        # only its own K4 (distance to the far K4 inside g exceeds 1)
        k4a = list(itertools.combinations(range(4), 2))
        k4b = list(itertools.combinations(range(3, 7), 2))
        g = make_local(k4a + k4b)
        got = g.seed_community(0, 1, 4, {"kw0"})
        assert got == frozenset({0, 1, 2, 3})

    def test_no_edges_rejected_for_k3(self):
        g = make_local(PATH)  # no triangles at all
        assert g.seed_community(0, 2, 3, {"kw0"}) is None

    def test_k2_returns_radius_ball(self):
        g = make_local(PATH)
        got = g.seed_community(2, 1, 2, {"kw0"})
        assert got == frozenset({1, 2, 3})

    def test_result_is_valid(self, local_medium):
        """Every produced community satisfies all Def. 2 constraints."""
        q = {"kw0", "kw1", "kw2", "kw3", "kw4"}
        checked = 0
        for center in list(local_medium.vertices())[:80]:
            got = local_medium.seed_community(center, 2, 4, q)
            if got is None:
                continue
            checked += 1
            assert center in got
            # keyword constraint
            for v in got:
                assert local_medium.keywords[v] & q
            # truss constraint
            sup = local_medium.induced_support(set(got))
            assert all(s >= 2 for s in sup.values())
            # connectivity + radius within g
            dist = local_medium.khop(center, len(got), allowed=set(got))
            assert set(dist) == set(got)
            assert max(dist.values()) <= 2
        assert checked > 0, "fixture produced no communities to validate"

    def test_matches_reference_fixpoint(self, generated_graphs):
        """Equal to the plainly written fixpoint on every center, for seeded
        random (Q, k, r) on NWS Uniform, NWS Zipf and clique-affiliation
        graphs."""
        rng = random.Random(17)
        for g in generated_graphs:
            vocab = sorted({w for kws in g.keywords.values() for w in kws})
            outcomes = set()
            for _ in range(6):
                query = set(rng.sample(vocab, rng.randint(1, 6)))
                k, r = rng.randint(2, 6), rng.randint(1, 3)
                for center in g.vertices():
                    got = g.seed_community(center, r, k, query)
                    assert got == reference_seed_community(g, center, r, k, query), (
                        center, r, k, query,
                    )
                    outcomes.add(got is None)
            assert outcomes == {True, False}, "queries gave only one kind of answer"

    def test_radius_cut_repeels(self):
        """A vertex the radius cut drops can hold up edges that stay inside.

        K4 {0,1,2,3} and an octahedron on {3..8} share vertex 3 (opposite
        pairs 3-8, 4-5, 6-7). Edge 1-8 is in no triangle, so the peel drops
        it and 8 ends at distance 3 from center 0. Without 8 every
        octahedron edge is in one triangle only, so a second peel round
        removes the whole octahedron.
        """
        octahedron = [
            (u, v)
            for u, v in itertools.combinations(range(3, 9), 2)
            if {u, v} not in ({3, 8}, {4, 5}, {6, 7})
        ]
        g = make_local(list(itertools.combinations(range(4), 2)) + octahedron + [(1, 8)])
        assert g.seed_community(0, 2, 4, {"kw0"}) == frozenset({0, 1, 2, 3})
        assert g.seed_community(0, 3, 4, {"kw0"}) == frozenset(range(9))

    def test_core_cut_removes_the_center(self, peels):
        """K4 on 0..3 plus vertex 4 adjacent to 0 and 1, at k = 4: 4 has
        degree 2 ≤ k−2, so the (k−1)-core cut of the ball peel removes it
        before any support is counted, and the full graph extracts None at
        4, as the plain fixpoint does. At center 0 the cut removes 4 and
        support is counted on the K4's six edges only."""
        g = make_local(K4_EDGES + [(0, 4), (1, 4)])
        q = {"kw0"}
        assert g.seed_community(4, 2, 4, q) is None
        assert peels == [4]
        assert reference_seed_community(g, 4, 2, 4, q) is None
        peel = _Peel(g._nbr(set(range(5))), 4, 4)
        assert peel.sup == {} and 4 not in peel.nbr
        assert peel.run() is False
        peel = _Peel(g._nbr(set(range(5))), 4, 0)
        assert len(peel.sup) == 6 and set(peel.nbr) == set(range(4))
        assert peel.run() is True
        assert g.seed_community(0, 2, 4, q) == frozenset(range(4))
        assert reference_seed_community(g, 0, 2, 4, q) == frozenset(range(4))

    def test_fixpoint_stability(self, local_medium):
        """Running extraction on its own result returns the same set."""
        q = {"kw0", "kw1", "kw2", "kw3", "kw4"}
        for center in list(local_medium.vertices())[:40]:
            got = local_medium.seed_community(center, 2, 4, q)
            if got is None:
                continue
            vs, es = local_medium.ktruss(set(got), 4)
            assert vs == set(got)
            break


class TestKeywordTruss:
    """Extraction given the keyword truss T_k(G_Q) is exactly what the full
    graph extracts."""

    def test_view_matches_full_graph(self, generated_graphs, peels):
        """The keyword truss's edges are T_k(G_Q) as the peel of G_Q and as
        ``networkx.k_truss`` (an implementation of its own) compute it, at
        every k in 2..6, and extraction given it equals extraction on the
        full graph alone."""
        rng = random.Random(29)
        for g in generated_graphs:
            vocab = sorted({w for kws in g.keywords.values() for w in kws})
            cut = 0
            paths = dict.fromkeys(("component", "ring", "peel"), 0)
            for _ in range(12):
                query = set(rng.sample(vocab, rng.randint(1, 6)))
                k, r = rng.randint(2, 6), rng.randint(1, 3)
                truss = g.keyword_truss(query, k)
                assert (truss.query, truss.k) == (query, k)
                vq = {v for v in g.adj if g.keywords[v] & query}
                _, want_edges = g.ktruss(vq, k)
                assert edges_of(truss.adj) == want_edges
                gq = nx.Graph((u, v) for u in vq for v in g.adj[u] & vq)
                for kk in range(2, 7):
                    want = {(min(e), max(e)) for e in nx.k_truss(gq, kk).edges}
                    got = edges_of(g.keyword_truss(query, kk).adj)
                    assert got == want, (query, kk)
                for center in g.vertices():
                    got = g.seed_community(center, r, k, query)
                    if center not in truss.adj:
                        assert got is None, (center, r, k, query)
                        continue
                    started = len(peels)
                    assert g.seed_community(center, r, k, query, truss) == got, (
                        center, r, k, query,
                    )
                    paths[extraction_path(truss, center, got, peels, started)] += 1
                    cut += truss.adj[center] != g.adj[center] & vq
            assert cut > 0, "the truss never cut a surviving center's adjacency"
            assert paths["component"] and paths["ring"], f"extraction paths: {paths}"

    def test_component_shortcut_on_a_chain_of_triangles(self, peels):
        """Triangles 0-1-2, 2-3-4 and 4-5-6 form a chain; triangle 7-8-9
        stands alone. At k = 3, r = 1 the ball of 7 is its whole component;
        the ball of 2 is not, but its ring edges 0-1 and 3-4 keep their
        triangles through 2 (ring test). Neither peels, and both extract
        what the full graph extracts; at another k the truss raises and the
        full graph peels as usual."""
        chain = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6)]
        g = make_local(chain + [(7, 8), (7, 9), (8, 9)])
        q = {"kw0"}
        truss = g.keyword_truss(q, 3)
        peels.clear()
        assert g.seed_community(7, 1, 3, q, truss) == frozenset({7, 8, 9})
        assert g.seed_community(2, 1, 3, q, truss) == frozenset(range(5))
        assert peels == []
        for center in range(10):
            for r in (1, 3):
                assert g.seed_community(center, r, 3, q, truss) == g.seed_community(center, r, 3, q)
        assert g.seed_community(0, 3, 3, q) == frozenset(range(7))
        peels.clear()
        with pytest.raises(ValueError, match="asked at"):
            g.seed_community(7, 1, 4, q, truss)
        assert g.seed_community(7, 1, 4, q) is None
        assert peels == [7]

    def test_ring_test_falls_back_to_the_peel(self, peels):
        """Octahedron on 0..5 with opposite pairs 0-5, 1-2 and 3-4, at
        k = 4: every edge is in two triangles, so T_k(G_Q) keeps it whole.
        At r = 1 each ring edge of center 0 closes its second triangle
        through 5, at depth 2; the ring test fails, the peel runs and
        removes every edge, as on the full graph. At r = 2 the ball is the
        component. At r = 0 the ball has no edge."""
        octahedron = [
            (u, v)
            for u, v in itertools.combinations(range(6), 2)
            if {u, v} not in ({0, 5}, {1, 2}, {3, 4})
        ]
        g = make_local(octahedron)
        q = {"kw0"}
        truss = g.keyword_truss(q, 4)
        assert edges_of(truss.adj) == set(octahedron)
        peels.clear()
        assert g.seed_community(0, 1, 4, q, truss) is None
        assert peels == [0]
        assert g.seed_community(0, 1, 4, q) is None
        assert g.seed_community(0, 0, 4, q, truss) is None  # no edge within r = 0
        assert g.seed_community(0, 0, 4, q) is None
        peels.clear()
        got = g.seed_community(0, 2, 4, q, truss)
        assert got is truss.components[0] and peels == []
        assert got == g.seed_community(0, 2, 4, q) == frozenset(range(6))

    def test_ring_test_answers_are_seed_communities(self, generated_graphs, peels):
        """Every set the ring test returns is a seed community (Def. 2),
        checked without ``_Peel``: each of its edges in T_k(G_Q) has support
        ≥ k−2 inside it, every vertex is within r of the center over those
        edges and holds a query keyword, and it is what the plainly written
        fixpoint extracts on the full graph."""
        rng = random.Random(61)
        for g in generated_graphs:
            vocab = sorted({w for kws in g.keywords.values() for w in kws})
            checked = 0
            for _ in range(12):
                query = set(rng.sample(vocab, rng.randint(1, 6)))
                k, r = rng.randint(2, 6), rng.randint(1, 3)
                truss = g.keyword_truss(query, k)
                on_truss = truss_graph(g, truss)
                for center in truss.adj:
                    started = len(peels)
                    got = g.seed_community(center, r, k, query, truss)
                    if extraction_path(truss, center, got, peels, started) != "ring":
                        continue
                    checked += 1
                    support = on_truss.induced_support(set(got))
                    assert support and min(support.values()) >= k - 2, (center, r, k, query)
                    dist = on_truss.khop(center, r, allowed=set(got))
                    assert dist.keys() == got, (center, r, k, query)
                    assert all(g.keywords[v] & query for v in got)
                    assert got == reference_seed_community(g, center, r, k, query)
            assert checked, "the ring test never returned a community"

    def test_dangling_keyword_path_dropped(self):
        """Keyword K4 on 0..3 with keyword path 3-4-5; vertex 6 lacks the
        keyword and closes triangle 4-5-6. In G_Q the path is in no
        triangle, so T_k(G_Q) keeps the K4 alone."""
        kws = {v: ["kw1"] for v in range(6)}
        kws[6] = ["kw9"]
        g = make_local(
            list(itertools.combinations(range(4), 2)) + [(3, 4), (4, 5), (4, 6), (5, 6)],
            keywords=kws,
        )
        truss = g.keyword_truss({"kw1"}, 3)
        assert set(truss.adj) == {0, 1, 2, 3}
        assert truss.adj[3] == {0, 1, 2}
        for center in (4, 5):
            assert g.seed_community(center, 2, 3, {"kw1"}) is None
            assert g.seed_community(center, 2, 3, {"kw1"}, truss) is None
        assert g.seed_community(0, 2, 3, {"kw1"}, truss) == frozenset(range(4))
        assert g.seed_community(0, 2, 3, {"kw1"}) == frozenset(range(4))

    def test_graph_truss_peeled_once_per_k(self, local_medium, peels):
        """T_k(G) is peeled on the first keyword truss at k and read by
        every later one: a first keyword truss at k builds two peels
        (T_k(G), then T_k(G_Q) inside it), a later one one. The kept T_k(G)
        is the graph's maximal k-truss."""
        g = fresh(local_medium)
        rng = random.Random(67)
        vocab = sorted({w for kws in g.keywords.values() for w in kws})
        asked = set()
        for k in (3, 4, 3, 5, 4, 3, 5):
            peels.clear()
            g.keyword_truss(set(rng.sample(vocab, rng.randint(2, 6))), k)
            assert peels == [None] if k in asked else [None, None], k
            asked.add(k)
        assert set(g._trusses) == asked
        for k in asked:
            truss = g._trusses[k]
            assert (set(truss), edges_of(truss)) == g.ktruss(set(g.adj), k), k

    def test_holding_equals_the_keyword_scan(self, generated_graphs):
        """V_Q read from the keyword map is the scan over every vertex,
        vertices without edges included; the map is built once per graph,
        and every vertex of a keyword truss is in V_Q."""
        kws = {0: ["a"], 1: ["a", "b"], 2: ["c"], 3: ["a"], 4: ["b", "c"], 5: ["d"]}
        g = make_local([(0, 1), (0, 2), (1, 2)], n=6, keywords=kws)
        assert not g.adj[3] and not g.adj[4]
        for query in ({"a"}, {"b"}, {"a", "c"}, {"d"}, {"b", "zz"}, {"zz"}, set()):
            assert g.holding(query) == {v for v in g.adj if g.keywords[v] & query}, query
        assert g.holding({"a", "b"}) == {0, 1, 3, 4}
        rng = random.Random(53)
        for g in generated_graphs:
            g = fresh(g)
            vocab = sorted({w for kws in g.keywords.values() for w in kws})
            for _ in range(10):
                query = set(rng.sample(vocab, rng.randint(1, 6))) | {"not-a-keyword"}
                want = {v for v in g.adj if g.keywords[v] & query}
                assert g.holding(query) == want, query
                assert g.keyword_truss(query, rng.randint(2, 5)).adj.keys() <= want

    def test_truss_asked_at_another_query_or_k_raises(self):
        """K4 on 0..3 where 0-2 hold kw1 and 3 holds kw2: the keyword truss
        of ({kw1, kw2}, 3) extracts the K4 at its own (Q, k), given as a set
        or a frozenset, and raises ValueError asked with {kw1} or {kw2}, or
        at k = 4, where its edges need not hold the communities asked for
        (the full graph extracts the triangle 0-2 at {kw1}). It raises
        before any vertex test, so also at a vertex it lacks."""
        kws = {0: ["kw1"], 1: ["kw1"], 2: ["kw1"], 3: ["kw2"]}
        g = make_local(K4_EDGES, keywords=kws)
        truss = g.keyword_truss({"kw1", "kw2"}, 3)
        for q in ({"kw1", "kw2"}, frozenset({"kw1", "kw2"})):
            assert g.seed_community(0, 1, 3, q, truss) == frozenset(range(4))
        assert g.seed_community(0, 1, 3, {"kw1"}) == frozenset(range(3))
        for center, q, k in (
            (0, {"kw1"}, 3), (0, {"kw2"}, 3), (0, {"kw1", "kw2"}, 4), (99, {"kw1"}, 3),
        ):
            with pytest.raises(ValueError, match="asked at"):
                g.seed_community(center, 1, k, q, truss)


class TestSigmaMemo:
    """``refine`` scores each (g, θ) once per snapshot; no answer depends on
    what the σ memo already holds."""

    def test_answers_equal_a_fresh_graph(self, generated_graphs):
        """40 seeded queries on one graph, every other one refining the
        centers of its keyword truss given the truss, against each query on
        an empty-memo graph:
        θ on the offline grid and off it, (Q, k, r) drawn from a small pool
        so that queries repeat communities."""
        rng = random.Random(41)
        for g in generated_graphs:
            shared = fresh(g)
            vocab = sorted({w for kws in g.keywords.values() for w in kws})
            pool = [
                (frozenset(rng.sample(vocab, rng.randint(2, 6))), rng.randint(2, 5), rng.randint(1, 3))
                for _ in range(8)
            ]
            hits = misses = 0
            for i in range(40):
                kws, k, r = rng.choice(pool)
                q = Query(
                    keywords=kws, k=k, r=r,
                    theta=rng.choice((0.1, 0.15, 0.2, 0.3, 0.45)), L=rng.randint(1, 10),
                )
                before = set(shared.sigma_memo)
                if i % 2:
                    truss, seen = shared.keyword_truss(kws, k), set()
                    got = rank(
                        (refine(shared, v, q, seen, truss) for v in sorted(truss.adj)), q.L
                    )
                else:
                    got = brute_force_topl(shared, q)
                want = brute_force_topl(fresh(g), q)
                assert [c.vertices for c in got] == [c.vertices for c in want], q
                for a, b in zip(got, want):
                    assert math.isclose(a.sigma, b.sigma, rel_tol=1e-12), q
                    assert a.cpp == b.cpp, q
                    if (a.vertices, q.theta) in before:
                        hits += 1
                    else:
                        misses += 1
            assert hits and misses, (hits, misses)

    def test_view_and_graph_share_memo(self, local_medium, monkeypatch):
        """A community scored given the keyword truss is a hit without it,
        and the other way round; another θ is a miss. A hit makes no
        influence call in ``refine``, nor when its ``cpp`` is read: the
        miss's first read computed it into the snapshot's cpp memo."""
        g = fresh(local_medium)
        scored = []
        influence = LocalGraph.influence

        def counting(self, seed, theta):
            scored.append((frozenset(seed), theta))
            return influence(self, seed, theta)

        monkeypatch.setattr(LocalGraph, "influence", counting)
        q = Query(keywords=frozenset({"kw0", "kw1", "kw2", "kw3", "kw4"}), k=3, r=2, theta=0.2, L=5)
        truss = g.keyword_truss(q.keywords, q.k)
        comms = {}
        for c in sorted(truss.adj):
            comms.setdefault(g.seed_community(c, q.r, q.k, q.keywords, truss), c)
        comms.pop(None, None)
        (ga, a), (gb, b) = list(comms.items())[:2]

        first = refine(g, a, q, set(), truss)
        assert scored == [(ga, 0.2)]
        # scoring keeps no influenced community: the first read computes it
        assert first.cpp and scored == [(ga, 0.2)] * 2
        hit = refine(g, a, q, set())
        assert len(scored) == 2
        assert (hit.vertices, hit.sigma) == (first.vertices, first.sigma)
        # the hit's cpp is read from the memo, into a dict of its own
        cpp = hit.cpp
        assert cpp == first.cpp and cpp is not hit.cpp and len(scored) == 2

        second = refine(g, b, q, set())
        assert scored[2:] == [(gb, 0.2)] and second.cpp
        hit = refine(g, b, q, set(), truss)
        assert scored[2:] == [(gb, 0.2)] * 2 and hit.sigma == second.sigma
        assert hit.cpp == second.cpp and len(scored) == 4

        other = refine(g, a, dataclasses.replace(q, theta=0.3), set(), truss)
        assert scored[4:] == [(ga, 0.3)] and other.cpp
        assert set(g.sigma_memo) == {(ga, 0.2), (gb, 0.2), (ga, 0.3)}
        assert set(g.cpp_memo) == set(g.sigma_memo)


def driver_index(g: LocalGraph):
    """The tree index over aggregates computed on ``g`` itself (what
    Algorithm 2 computes in Spark), with the σ_z bound of every
    (vertex, r) by (vertex, r)."""
    rows, sigma_z = [], {}
    for v in sorted(g.adj):
        for r in range(1, P.R_MAX + 1):
            hop = set(g.khop(v, r))
            bv = 0
            for u in hop:
                bv |= g.bv[u]
            sup = max(
                (g.support[(a, b)] for a in hop for b in g.adj[a] if a < b and b in hop),
                default=NO_EDGE_SUPPORT,
            )
            sigma_z[v, r] = [g.sigma(hop, t) for t in P.THETAS]
            rows.append([v, r, g.bv[v], bv, sup, *sigma_z[v, r]])
    pdf = pd.DataFrame(
        rows,
        columns=["vertex", "r", "bv_self", "bv_r", "ub_sup_r"]
        + [f"sigma_{z}" for z in range(len(P.THETAS))],
    )
    return build_index(Precomputed(pdf=pdf, thetas=P.THETAS, r_max=P.R_MAX)), sigma_z


class TestComponentBound:
    """σ(C, θ) of a center's component C of T_k(G_Q) bounds the σ of every
    seed community at the center, and ``topl_icde`` prunes with it."""

    THETAS = (0.1, 0.15, 0.2, 0.3, 0.45)

    def test_component_sigma_bounds_seed_community(self, generated_graphs):
        """σ is read as ``refine`` reads it, through the σ memo: when the
        community is the whole component, both are one memo entry."""
        rng = random.Random(43)
        for g in generated_graphs:
            g = fresh(g)
            vocab = sorted({w for kws in g.keywords.values() for w in kws})
            checked = 0
            for k in range(2, 8):
                for _ in range(2):
                    query = set(rng.sample(vocab, rng.randint(1, 6)))
                    r, theta = rng.randint(1, 3), rng.choice(self.THETAS)
                    truss = g.keyword_truss(query, k)
                    for center in truss.adj:
                        comm = g.seed_community(center, r, k, query)
                        if comm is None:
                            continue
                        whole = truss.components[center]
                        assert comm <= whole, (center, r, k, query)
                        bound = topl_module.score(g, whole, theta)
                        assert bound >= topl_module.score(g, comm, theta), (
                            center, r, k, query,
                        )
                        checked += 1
            assert checked, "no seed community to bound"

    def test_bound_prunes_and_misses_in_topl_icde(self, generated_graphs, monkeypatch):
        """Per graph, the Lemma 4 test on some center of T_k(G_Q) prunes
        with the component bound where σ_z(hop(v, r)) alone would not, and
        on another center the bound is below σ_z yet does not prune."""
        decisions = []  # (vertex, key tested, σ_L, pruned)
        pending = []
        prune = topl_module.score_prune

        def recording_prune(key, sigma_l):
            pruned = prune(key, sigma_l)
            if pending:
                decisions.append((pending.pop(), key, sigma_l, pruned))
            return pruned

        monkeypatch.setattr(topl_module, "score_prune", recording_prune)
        rng = random.Random(47)
        for g in generated_graphs:
            g = fresh(g)
            index, sigma_z = driver_index(g)
            vocab = sorted({w for kws in g.keywords.values() for w in kws})
            fires = misses = 0
            for _ in range(20):
                q = Query(
                    keywords=frozenset(rng.sample(vocab, rng.randint(2, 6))),
                    k=rng.randint(2, 5), r=rng.randint(1, 3),
                    theta=rng.choice(self.THETAS), L=rng.randint(1, 10),
                )
                decisions.clear()
                record_keyed(g, q, pending)
                got = topl_icde(g, index, q, P.THETAS)
                assert [c.sigma for c in got] == [c.sigma for c in brute_force_topl(g, q)], q
                z = z_index(P.THETAS, q.theta)
                for v, key, sigma_l, pruned in decisions:
                    loose = sigma_z[v, q.r][z]
                    assert key <= loose
                    fires += pruned and not prune(loose, sigma_l)
                    misses += not pruned and key < loose
            assert fires and misses, (fires, misses)


class TestTrussBallBound:
    """σ(B, θ) of a center's depth-r ball B in T_k(G) bounds the σ of every
    seed community at the center, whatever Q, and ``topl_icde`` prunes with
    it from a memo kept per (k, r, θ) on the snapshot."""

    THETAS = TestComponentBound.THETAS

    def test_ball_holds_and_bounds_every_seed_community(self, generated_graphs):
        """The ball is the depth-r ego graph of ``networkx.k_truss`` (an
        implementation of its own). Every seed community at every center of
        T_k(G_Q) lies in it, and its σ, read through the σ memo as
        ``refine`` reads it, does not exceed the ball's."""
        rng = random.Random(53)
        for g in generated_graphs:
            g = fresh(g)
            whole = nx.Graph(g.undirected_edges())
            vocab = sorted({w for kws in g.keywords.values() for w in kws})
            checked = proper = 0
            for k in range(2, 7):
                truss = nx.k_truss(whole, k)
                for _ in range(2):
                    query = set(rng.sample(vocab, rng.randint(1, 6)))
                    r, theta = rng.randint(1, 3), rng.choice(self.THETAS)
                    for center in g.keyword_truss(query, k).adj:
                        ball = g.truss_ball(center, k, r)
                        assert ball == set(nx.ego_graph(truss, center, radius=r)), (
                            center, k, r,
                        )
                        comm = g.seed_community(center, r, k, query)
                        if comm is None:
                            continue
                        assert comm <= ball, (center, r, k, query)
                        bound = topl_module.score(g, ball, theta)
                        assert bound >= topl_module.score(g, comm, theta), (
                            center, r, k, query,
                        )
                        checked += 1
                        proper += comm < ball
            assert checked and proper, (checked, proper)

    def test_ball_bound_prunes_in_topl_icde(self, generated_graphs, monkeypatch):
        """Per graph, the ball bound prunes some center of T_k(G_Q) that
        σ_z(hop(v, r)) and σ(C, θ) alone keep: a center keyed above the
        final σ_L that is never refined, cut by the Lemma 4 test or the
        Lemma 7 stop, is refined when every ball is widened to the whole
        graph, which holds C. Every key tested on a center is the least of
        the two truss bounds, σ(C, θ) and the ball's read from the memo,
        and the σ lists are brute force's."""
        decisions = []  # (vertex, key tested)
        pending, refined = [], []
        prune, refine_ = topl_module.score_prune, refine

        def recording_prune(key, sigma_l):
            if pending:
                decisions.append((pending.pop(), key))
            return prune(key, sigma_l)

        def recording_refine(local, center, query, seen, truss=None):
            refined.append(center)
            return refine_(local, center, query, seen, truss)

        monkeypatch.setattr(topl_module, "score_prune", recording_prune)
        monkeypatch.setattr(topl_module, "refine", recording_refine)
        rng = random.Random(59)
        for g in generated_graphs:
            g = fresh(g)
            index, sigma_z = driver_index(g)
            vocab = sorted({w for kws in g.keywords.values() for w in kws})
            fires = 0
            for _ in range(20):
                q = Query(
                    keywords=frozenset(rng.sample(vocab, rng.randint(2, 6))),
                    k=rng.randint(2, 5), r=rng.randint(1, 3),
                    theta=rng.choice(self.THETAS), L=rng.randint(1, 10),
                )
                decisions.clear(), refined.clear()
                record_keyed(g, q, pending)
                got = topl_icde(g, index, q, P.THETAS)
                kept = set(refined)
                sigma_l = got[-1].sigma if len(got) == q.L else -math.inf
                truss = g.keyword_truss(q.keywords, q.k)
                balls = g.ball_memo[q.k, q.r, q.theta]
                z = z_index(P.THETAS, q.theta)
                cut = set()
                for v, key in decisions:
                    bound = topl_module.score(g, truss.components[v], q.theta)
                    assert key == min(bound, balls[v])
                    loose = min(sigma_z[v, q.r][z], bound)
                    if loose > sigma_l and v not in kept:
                        cut.add(v)
                with monkeypatch.context() as m:
                    m.setattr(LocalGraph, "truss_ball", lambda self, v, k, r: frozenset(self.adj))
                    refined.clear()
                    loose_only = topl_icde(fresh(g), index, q, P.THETAS)
                assert cut <= set(refined), q
                assert [c.sigma for c in loose_only] == [c.sigma for c in got], q
                assert [c.sigma for c in got] == [c.sigma for c in brute_force_topl(g, q)], q
                fires += len(cut)
            assert fires, "the ball bound never pruned a center the others keep"

    QUERY = Query(keywords=frozenset({"kw0", "kw1", "kw2", "kw3", "kw4"}), k=3, r=2, theta=0.2, L=5)

    def test_memo_is_shared_and_each_ball_built_once(self, local_small, monkeypatch):
        """Two queries that differ only in Q, at one (k, r, θ): each center's
        ball is built once, and the second query reads balls the first
        built. The memo holds σ(B, θ) as the σ memo holds it."""
        g = fresh(local_small)
        index, _ = driver_index(g)
        built, keyed = [], []
        ball = LocalGraph.truss_ball

        def counting_ball(self, center, k, r):
            built.append(center)
            return ball(self, center, k, r)

        monkeypatch.setattr(LocalGraph, "truss_ball", counting_ball)
        q = self.QUERY
        other = dataclasses.replace(q, keywords=frozenset({"kw2", "kw3", "kw4", "kw5", "kw6"}))
        at = (q.k, q.r, q.theta)
        record_keyed(g, q, keyed)
        topl_icde(g, index, q, P.THETAS)
        first = set(g.ball_memo[at])
        assert built and sorted(built) == sorted(first) == sorted(set(keyed))
        built.clear(), keyed.clear()
        record_keyed(g, other, keyed)
        topl_icde(g, index, other, P.THETAS)
        assert not first & set(built), "a ball was built twice"
        assert first & set(keyed), "the second query read no ball the first built"
        assert set(g.ball_memo[at]) == first | set(built)
        assert list(g.ball_memo) == [at]
        for v, sigma in g.ball_memo[at].items():
            assert g.sigma_memo[ball(g, v, q.k, q.r), q.theta] == sigma

    @pytest.mark.parametrize("flags", [dict(use_support=False), dict(use_score=False)])
    def test_memo_stays_empty_without_the_bound(self, local_small, flags):
        """The bound is active exactly where the component bound is: with
        the keyword truss and the score family on."""
        g = fresh(local_small)
        index, _ = driver_index(g)
        assert topl_icde(g, index, self.QUERY, P.THETAS, **flags)
        assert g.ball_memo == {}
