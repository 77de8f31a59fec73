"""DTopL-ICDE: greedy variants, the exhaustive Optimal, and the pipeline."""
from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.core import diversify
from repro.core.diversify import (
    DiversifyStats,
    dtopl_icde,
    greedy_wop,
    greedy_wp,
    optimal,
)
from repro.core.topl import Community, Query
from repro.influence.scores import diversity_score


def synth_candidates(n, seed=0, universe=60):
    """Random candidate communities with random cpp maps."""
    rng = random.Random(seed)
    cands = []
    for i in range(n):
        size = rng.randint(2, 12)
        cpp = {rng.randrange(universe): round(rng.uniform(0.1, 1.0), 3) for _ in range(size)}
        cands.append(
            Community(center=i, vertices=frozenset({i}), sigma=sum(cpp.values()), cpp=cpp)
        )
    cands.sort(key=lambda c: -c.sigma)
    return cands


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
