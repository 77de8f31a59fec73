"""DTopL-ICDE: greedy variants, the exhaustive Optimal, and the pipeline."""
from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core import diversify
from repro.core.baseline import atindex_query, edge_trussness
from repro.core.diversify import (
    DiversifyStats,
    diversity,
    dtopl_icde,
    gain,
    greedy_wop,
    greedy_wp,
    merge,
    optimal,
    pool_rows,
)
from repro.core.topl import Community, Query, brute_force_topl, topl_icde
from repro.experiments import params as P
from repro.graph import generators as gen
from repro.graph.local import LocalGraph, cpp_rows
from tests.test_local_graph import driver_index, fresh
from tests.test_scores import diversity_score, marginal_gain, merge_max

#: the θ every synthetic community is scored at
THETA = 0.1


def memo_graph(universe):
    """An edgeless snapshot of vertices 0..universe-1: its ``cpp_memo`` is
    filled by hand with :func:`memo_community`."""
    return LocalGraph(adj={v: set() for v in range(universe)}, out={}, keywords={}, bv={})


def memo_community(graph, center, cpp):
    """The community {center} on ``graph`` at :data:`THETA`, whose
    influenced community is the map ``cpp``, stored in the graph's memo."""
    g = frozenset({center})
    graph.cpp_memo[g, THETA] = cpp_rows(cpp, graph.positions())
    return Community(center, g, sum(cpp.values()), graph, THETA)


def synth_candidates(n, seed=0, universe=60):
    """Random candidate communities with random cpp maps, on one snapshot."""
    rng = random.Random(seed)
    graph = memo_graph(universe)
    cands = []
    for i in range(n):
        size = rng.randint(2, 12)
        cpp = {rng.randrange(universe): round(rng.uniform(0.1, 1.0), 3) for _ in range(size)}
        cands.append(memo_community(graph, i, cpp))
    cands.sort(key=lambda c: -c.sigma)
    return cands


def reference_greedy(cands, L, lazy):
    """The selection on cpp dicts with the reference gain: Algorithm 4's
    lazy greedy (``lazy``) or the full rescan of every round, with the
    tie-breaking of ``greedy_wp`` and ``greedy_wop``."""
    acc, selected = {}, []
    if lazy:
        heap = [(-c.sigma, i, i) for i, c in enumerate(cands)]
        heapq.heapify(heap)
        rounds = [0] * len(cands)
        while heap and len(selected) < L:
            _, tb, i = heapq.heappop(heap)
            if rounds[i] == len(selected):
                selected.append(cands[i])
                merge_max(acc, cands[i].cpp)
            else:
                rounds[i] = len(selected)
                heapq.heappush(heap, (-marginal_gain(acc, cands[i].cpp), tb, i))
        return selected
    remaining = list(range(len(cands)))
    while remaining and len(selected) < L:
        best_i, best_gain = None, -1.0
        for i in remaining:
            g = marginal_gain(acc, cands[i].cpp)
            if g > best_gain + 1e-12:
                best_i, best_gain = i, g
        selected.append(cands[best_i])
        merge_max(acc, cands[best_i].cpp)
        remaining.remove(best_i)
    return selected


def optimal_bruteforce(cands, L):
    best, best_d = [], -1.0
    for combo in itertools.combinations(range(len(cands)), min(L, len(cands))):
        d = diversity_score([cands[i].cpp for i in combo])
        if d > best_d + 1e-12:
            best_d, best = d, [cands[i] for i in combo]
    return best, best_d


class TestGreedy:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("L", [1, 3, 5])
    def test_wp_equals_wop(self, seed, L):
        cands = synth_candidates(20, seed=seed)
        d_wp = diversity_score([c.cpp for c in greedy_wp(cands, L)])
        d_wop = diversity_score([c.cpp for c in greedy_wop(cands, L)])
        assert d_wp == pytest.approx(d_wop, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_wp_selects_same_sets_as_wop(self, seed):
        cands = synth_candidates(15, seed=seed)
        wp = [c.center for c in greedy_wp(cands, 4)]
        wop = [c.center for c in greedy_wop(cands, 4)]
        assert wp == wop

    def test_first_pick_is_max_sigma(self):
        cands = synth_candidates(12, seed=1)
        sel = greedy_wp(cands, 3)
        assert sel[0].sigma == max(c.sigma for c in cands)

    def test_lazy_greedy_saves_evaluations(self):
        cands = synth_candidates(40, seed=2)
        st_wp, st_wop = DiversifyStats(), DiversifyStats()
        greedy_wp(cands, 8, st_wp)
        greedy_wop(cands, 8, st_wop)
        assert st_wp.gain_evaluations <= st_wop.gain_evaluations

    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_approximation_guarantee(self, seed):
        """D(greedy) ≥ (1 − 1/e) · D(optimal) over the same pool (Lemma 10
        with ε = 1)."""
        cands = synth_candidates(12, seed=seed)
        d_g = diversity_score([c.cpp for c in greedy_wp(cands, 4)])
        _, d_opt, _ = optimal(cands, 4)
        assert d_g >= (1 - 1 / math.e) * d_opt - 1e-9

    def test_fewer_candidates_than_L(self):
        cands = synth_candidates(3, seed=0)
        assert len(greedy_wp(cands, 10)) == 3
        assert len(greedy_wop(cands, 10)) == 3

    def test_empty_candidates(self):
        assert greedy_wp([], 5) == []
        assert greedy_wop([], 5) == []


class TestOptimal:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("L", [2, 3])
    def test_matches_bruteforce(self, seed, L):
        cands = synth_candidates(9, seed=seed)
        got, got_d, count = optimal(cands, L)
        want, want_d = optimal_bruteforce(cands, L)
        assert got_d == pytest.approx(want_d, abs=1e-9)
        assert [c.center for c in got] == [c.center for c in want]
        assert count == math.comb(9, L)

    def test_optimal_at_least_greedy(self):
        for seed in range(4):
            cands = synth_candidates(10, seed=seed)
            _, d_opt, _ = optimal(cands, 3)
            d_g = diversity_score([c.cpp for c in greedy_wp(cands, 3)])
            assert d_opt >= d_g - 1e-9

    def test_L_ge_n_takes_all(self):
        cands = synth_candidates(4, seed=3)
        got, d, count = optimal(cands, 10)
        assert len(got) == 4 and count == 1
        assert d == pytest.approx(diversity_score([c.cpp for c in cands]))

    def test_empty(self):
        got, d, count = optimal([], 3)
        assert got == [] and d == 0.0 and count == 0


class TestPipeline:
    def q(self, **kw):
        base = dict(keywords=frozenset({"kw0", "kw1", "kw2", "kw3", "kw4"}), k=4, r=2, theta=0.2, L=3)
        base.update(kw)
        return Query(**base)

    def test_wp_wop_same_diversity(self, prepared_small):
        q = self.q()
        wp = dtopl_icde(prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas, n=3, method="wp")
        wop = dtopl_icde(prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas, n=3, method="wop")
        assert diversity_score([c.cpp for c in wp]) == pytest.approx(
            diversity_score([c.cpp for c in wop]), abs=1e-9
        )

    def test_accuracy_vs_optimal(self, prepared_small):
        """The Fig. 6(e) measurement at test scale: ratio ≥ 1 − 1/e and
        typically ≈ 1."""
        q = self.q()
        wp = dtopl_icde(prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas, n=3, method="wp")
        opt = dtopl_icde(prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas, n=3, method="optimal")
        d_wp = diversity_score([c.cpp for c in wp])
        d_opt = diversity_score([c.cpp for c in opt])
        if d_opt > 0:
            assert d_wp / d_opt >= 1 - 1 / math.e - 1e-9

    def test_all_picks_are_communities(self, prepared_small):
        q = self.q()
        sel = dtopl_icde(prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas, n=3)
        for c in sel:
            assert c.center in c.vertices and c.cpp

    @pytest.fixture
    def no_pool(self, monkeypatch):
        """Fail if Algorithm 3 runs: bad arguments are refused before it
        builds the candidate pool."""
        def refuse(*args, **kwargs):
            raise AssertionError("topl_icde ran before the arguments were checked")

        monkeypatch.setattr(diversify, "topl_icde", refuse)

    def test_unknown_method_raises(self, prepared_small, no_pool):
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            dtopl_icde(prepared_small.local, prepared_small.index, self.q(), prepared_small.pre.thetas, method="magic")

    def test_n_below_one_raises(self, prepared_small, no_pool):
        with pytest.raises(ValueError, match=r"\bn=0\b"):
            dtopl_icde(prepared_small.local, prepared_small.index, self.q(), prepared_small.pre.thetas, n=0)

    def test_diversity_no_worse_than_top_L_alone(self, prepared_small):
        """Diversified selection must beat (or tie) taking the plain top-L,
        since the plain top-L is one feasible candidate subset of the pool
        the greedy optimises over."""
        from repro.core.topl import topl_icde

        q = self.q()
        plain = topl_icde(prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas)
        sel = dtopl_icde(prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas, n=3, method="optimal")
        if plain and sel:
            assert diversity_score([c.cpp for c in sel]) >= diversity_score(
                [c.cpp for c in plain]
            ) - 1e-9


def vertex_trussness(g):
    """ATindex's offline table on a driver-side graph."""
    vtruss = {}
    for (u, v), t in edge_trussness(g).items():
        for x in (u, v):
            vtruss[x] = max(t, vtruss.get(x, 0))
    return vtruss


@pytest.fixture(scope="module")
def driver_graphs():
    """NWS Uniform and Zipf graphs of 200 vertices, each with the tree index
    over aggregates computed on the graph itself."""
    out = {}
    for dist in ("uniform", "zipf"):
        g = LocalGraph.from_pandas(*gen.pandas_social_network(200, dist=dist, seed=11))
        out[dist] = (g, driver_index(g)[0])
    return out


def capture_pools(monkeypatch):
    """Every pool ``dtopl_icde`` hands to ``greedy_wp``, in call order."""
    pools, original = [], diversify.greedy_wp

    def capture(candidates, L, stats=None):
        pools.append(list(candidates))
        return original(candidates, L, stats)

    monkeypatch.setattr(diversify, "greedy_wp", capture)
    return pools


class TestArrayKernel:
    """The array gain and merge give the reference dict gain and merge to
    the last bit."""

    @pytest.mark.parametrize("seed", range(25))
    def test_gain_equals_reference(self, seed):
        """Full-mantissa values, whose sum rounds differently in another
        order, mixed with a few short ones that tie the running max, so
        that some gains are exactly zero."""
        rng = random.Random(seed)
        short = [round(rng.uniform(0.1, 1.0), 1) for _ in range(4)]
        maps = [
            {
                rng.randrange(60): rng.choice(short) if rng.random() < 0.4 else rng.random()
                for _ in range(rng.randint(0, 40))
            }
            for _ in range(8)
        ]
        at = dict(zip(rng.sample(range(60), 60), range(60)))
        rows = [cpp_rows(m, at) for m in maps]
        acc_d, acc_a = {}, np.zeros(len(at))
        zero = positive = 0
        for m, r in zip(maps, rows):
            for other_m, other_r in zip(maps, rows):
                want = marginal_gain(acc_d, other_m)
                assert gain(acc_a, other_r) == want
                zero += want == 0.0
                positive += want > 0.0
            merge_max(acc_d, m)
            merge(acc_a, r)
            assert acc_a.tolist() == [acc_d.get(v, 0.0) for v in at]
        assert zero and positive

    def test_pool_rows_takes_one_snapshot(self):
        """A pool reads its snapshot's memo and position space; an empty
        pool has none, and a pool that mixes two snapshots, or holds a
        community scored on no graph, is refused."""
        cands = synth_candidates(6, seed=4)
        rows, size = pool_rows(cands)
        assert size == 60
        for c, (pos, val) in zip(cands, rows):
            assert val.tolist() == list(c.cpp.values())
            stored = c.graph.cpp_memo[c.vertices, THETA]
            assert pos is stored[0] and val is stored[1]
        assert pool_rows([]) == ([], 0)
        other = synth_candidates(2, seed=5)
        with pytest.raises(ValueError, match="one snapshot"):
            pool_rows(cands + other)
        bare = Community(cands[0].center, cands[0].vertices, cands[0].sigma)
        with pytest.raises(ValueError, match="one snapshot"):
            pool_rows(cands + [bare])
        with pytest.raises(ValueError, match="one snapshot"):
            pool_rows([bare])


class TestDiversity:
    """``diversity`` is D(S) (Eq. 6) on the memo's arrays."""

    @pytest.mark.parametrize("dist", ["uniform", "zipf"])
    def test_equals_reference_on_dtopl_answers(self, driver_graphs, dist, monkeypatch):
        g, index = driver_graphs[dist]
        pools = capture_pools(monkeypatch)
        checked = 0
        for qseed in range(4):
            q = Query(
                keywords=P.query_keywords(qsize=5, seed=qseed), k=4, r=2,
                theta=P.THETAS[qseed % len(P.THETAS)], L=3,
            )
            sel = dtopl_icde(g, index, q, P.THETAS, n=3)
            pool = pools.pop()
            for s in (sel, pool, pool[:1]):
                want = diversity_score([c.cpp for c in s])
                assert diversity(s) == pytest.approx(want, rel=1e-12, abs=0.0)
            checked += len(sel) > 1
        assert checked
        assert diversity([]) == 0.0


class TestSelectionMatchesReference:
    """``greedy_wp`` and ``greedy_wop`` pick what the dict greedy with the
    reference gain picks, in the same order."""

    @pytest.mark.parametrize("n", [1, 5, 20, 60])
    @pytest.mark.parametrize("L", [1, 2, 3, 5, 8, 10])
    def test_synthetic_pools(self, n, L):
        for seed in range(3):
            cands = synth_candidates(n, seed=seed)
            # copies of the first candidates tie their gains exactly
            cands += [
                memo_community(c.graph, c.center + n, c.cpp) for c in cands[: n // 4]
            ]
            for lazy, select in ((True, greedy_wp), (False, greedy_wop)):
                want = reference_greedy(cands, L, lazy)
                assert [c.vertices for c in select(cands, L)] == [c.vertices for c in want]

    @pytest.mark.parametrize("dist", ["uniform", "zipf"])
    def test_dtopl_pools(self, driver_graphs, dist, monkeypatch):
        """Pools of ``dtopl_icde`` on driver-side graphs, sweeping L and n."""
        g, index = driver_graphs[dist]
        pools = capture_pools(monkeypatch)
        compared = 0
        for qseed in range(4):
            q = Query(
                keywords=P.query_keywords(qsize=5, seed=qseed), k=4, r=2,
                theta=P.THETAS[qseed % len(P.THETAS)], L=1,
            )
            for L in (2, 3, 5, 8):
                for n in (2, 3, 5):
                    got = dtopl_icde(g, index, replace(q, L=L), P.THETAS, n=n)
                    pool = pools.pop()
                    want = reference_greedy(pool, L, lazy=True)
                    assert [c.vertices for c in got] == [c.vertices for c in want]
                    want = reference_greedy(pool, L, lazy=False)
                    assert [c.vertices for c in greedy_wop(pool, L)] == [c.vertices for c in want]
                    compared += len(pool) > L
        assert compared >= 10, compared


class TestCppMemo:
    """``LocalGraph.cpp_memo`` holds each influenced community read, as
    arrays, once per snapshot; only a read of ``cpp`` fills it."""

    Q = Query(keywords=frozenset({"kw0", "kw1", "kw2", "kw3", "kw4"}), k=3, r=2, theta=0.2, L=4)

    def test_topl_paths_leave_memo_empty(self, driver_graphs):
        for g, index in driver_graphs.values():
            g = fresh(g)
            assert topl_icde(g, index, self.Q, P.THETAS)
            assert brute_force_topl(g, self.Q)
            assert atindex_query(g, vertex_trussness(g), self.Q)
            assert g.sigma_memo and g.cpp_memo == {}

    def test_repeated_dtopl_makes_no_influence_call(self, driver_graphs, monkeypatch):
        """The first query computes every pool member's influenced community
        into the memo, one influence call past scoring each; the
        second identical query reads them all from the memo and makes no
        influence call."""
        g, index = driver_graphs["zipf"]
        g = fresh(g)
        influence, calls = LocalGraph.influence, []

        def counting(self, seed, theta):
            calls.append((frozenset(seed), theta))
            return influence(self, seed, theta)

        monkeypatch.setattr(LocalGraph, "influence", counting)
        pools = capture_pools(monkeypatch)
        topl_icde(fresh(g), index, replace(self.Q, L=self.Q.L * 3), P.THETAS)
        scoring = len(calls)
        calls.clear()
        want = dtopl_icde(g, index, self.Q, P.THETAS, n=3)
        pool = {(c.vertices, self.Q.theta) for c in pools.pop()}
        assert len(pool) > self.Q.L and set(g.cpp_memo) == pool
        # the pool is ranked before the selection reads any member
        assert len(calls) == scoring + len(pool) and set(calls[scoring:]) == pool
        calls.clear()
        got = dtopl_icde(g, index, self.Q, P.THETAS, n=3)
        assert {(c.vertices, self.Q.theta) for c in pools.pop()} == pool
        assert [(c.vertices, c.cpp) for c in got] == [(c.vertices, c.cpp) for c in want]
        assert calls == []
        assert set(g.cpp_memo) == pool
        for pos, val in g.cpp_memo.values():
            assert pos.dtype == np.intp and val.dtype == np.float64
            with pytest.raises(ValueError):
                val[0] = 0.0

    def test_editing_an_answer_changes_no_later_read(self, driver_graphs):
        """Every read of an answer's ``cpp`` is a fresh dict: editing it
        reaches neither the memo nor the ``cpp`` of a later answer."""
        g, index = driver_graphs["uniform"]
        g = fresh(g)
        answers = topl_icde(g, index, self.Q, P.THETAS) + dtopl_icde(
            g, index, self.Q, P.THETAS, n=3
        )
        want = {c.vertices: g.influence(c.vertices, self.Q.theta) for c in answers}
        for c in answers:
            c.cpp[next(iter(c.cpp))] = 7.0
            c.cpp[-1] = 1.0
        later = brute_force_topl(g, replace(self.Q, L=50)) + dtopl_icde(
            g, index, self.Q, P.THETAS, n=3
        )
        assert {c.vertices for c in later} >= set(want)
        for c in later:
            assert c.cpp == g.influence(c.vertices, self.Q.theta)
