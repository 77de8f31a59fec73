"""Pruning predicates (Lemmas 1–7): unit behaviour + global safety.

Safety means: a candidate center pruned by any rule can never host a
community that belongs in the brute-force top-L answer.
"""
from __future__ import annotations

import math
from dataclasses import astuple

import pytest

from repro.core.keywords import bv_of
from repro.core.pruning import PruningStats, keyword_prune, score_prune
from repro.core.topl import Query, brute_force_topl, topl_icde


class TestPredicates:
    def test_keyword_prune_disjoint(self):
        assert keyword_prune(bv_of(["kw0"]), bv_of(["kw1"])) in (True, False)
        assert not keyword_prune(bv_of(["kw0", "kw5"]), bv_of(["kw5"]))

    def test_keyword_prune_empty_query(self):
        assert keyword_prune(bv_of(["kw0"]), 0)

    def test_keyword_prune_empty_vertex(self):
        assert keyword_prune(0, bv_of(["kw0"]))

    def test_score_prune_requires_full_buffer(self):
        assert not score_prune(1.0, -math.inf)  # σ_L before L are buffered
        assert score_prune(1.0, 5.0)
        assert score_prune(5.0, 5.0)  # ≤ prunes ties
        assert not score_prune(5.1, 5.0)

    def test_stats_total(self):
        s = PruningStats(keyword=2, support=3, score=4, heap_terminated=1)
        assert s.total_pruned == 10


class TestSafety:
    """No pruned candidate is a true answer (exactness of the traversal)."""

    QUERIES = [
        Query(frozenset({"kw0", "kw1", "kw2", "kw3", "kw4"}), 4, 2, 0.2, 5),
        Query(frozenset({"kw5", "kw6"}), 3, 1, 0.1, 3),
        Query(frozenset({"kw2", "kw9", "kw11"}), 4, 3, 0.3, 8),
        Query(frozenset({"kw0"}), 5, 2, 0.2, 2),
    ]

    @pytest.mark.parametrize("q", QUERIES, ids=lambda q: f"k{q.k}r{q.r}L{q.L}")
    def test_pruned_traversal_equals_brute_force(self, prepared_small, q):
        got = topl_icde(prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas)
        want = brute_force_topl(prepared_small.local, q)
        assert [round(c.sigma, 6) for c in got] == [round(c.sigma, 6) for c in want]

    FLAG_SETS = {
        "none": dict(use_keyword=False, use_support=False, use_score=False),
        "kw": dict(use_keyword=True, use_support=False, use_score=False),
        "kw+sup": dict(use_keyword=True, use_support=True, use_score=False),
        "sup+score": dict(use_keyword=False, use_support=True, use_score=True),
    }

    @pytest.mark.parametrize("flags", list(FLAG_SETS.values()), ids=list(FLAG_SETS))
    def test_any_flag_combination_is_exact(self, prepared_small, flags):
        q = self.QUERIES[0]
        got = topl_icde(
            prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas, **flags
        )
        want = brute_force_topl(prepared_small.local, q)
        assert [round(c.sigma, 6) for c in got] == [round(c.sigma, 6) for c in want]

    def test_more_pruning_never_more_refinement(self, prepared_small):
        q = self.QUERIES[0]
        refined = []
        for flags in (
            dict(use_keyword=False, use_support=False, use_score=False),
            dict(use_keyword=True, use_support=False, use_score=False),
            dict(use_keyword=True, use_support=True, use_score=False),
            dict(use_keyword=True, use_support=True, use_score=True),
        ):
            st = PruningStats()
            topl_icde(
                prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas,
                stats=st, **flags,
            )
            refined.append(st.refined)
        assert refined == sorted(refined, reverse=True)

    def test_counters_partition_candidates(self, prepared_small):
        """Every vertex is counted once: refined, or charged to one prune
        (the heap stop counts each node and entry left in the heap)."""
        n = len(prepared_small.local.adj)
        for name, flags in [("default", {}), *self.FLAG_SETS.items()]:
            for q in self.QUERIES:
                st = PruningStats()
                topl_icde(
                    prepared_small.local, prepared_small.index, q,
                    prepared_small.pre.thetas, stats=st, **flags,
                )
                assert st.refined + st.total_pruned == n, (name, q, st)
                assert min(astuple(st)) >= 0, (name, q, st)


class TestSupportAccounting:
    """The leaf-level support family is the T_k(G_Q) membership test."""

    QUERIES = TestSafety.QUERIES

    def stats_of(self, prepared, q, **flags):
        st = PruningStats()
        topl_icde(prepared.local, prepared.index, q, prepared.pre.thetas, stats=st, **flags)
        return st

    def test_support_fires_with_default_flags(self, prepared_small):
        """The answers stay exact: TestSafety runs the same queries."""
        assert any(self.stats_of(prepared_small, q).support > 0 for q in self.QUERIES)

    #: ``astuple(PruningStats)`` — (keyword, support, score, heap_terminated,
    #: refined, visited_nodes) — per query and flag set. Pinned: with the
    #: support family off, nothing of the traversal may depend on the
    #: T_k(G_Q) peel; with the default flags, every prune of Algorithm 3
    #: and the component σ bound shape the counts.
    PINNED = {
        "kw": [(54, 0, 0, 0, 96, 17), (102, 0, 0, 0, 48, 16), (94, 0, 0, 0, 56, 17),
               (127, 0, 0, 0, 23, 15)],
        "kw+score": [(54, 0, 0, 0, 96, 17), (97, 0, 1, 9, 43, 16), (94, 0, 0, 0, 56, 17),
                     (127, 0, 0, 0, 23, 15)],
        "default": [(54, 71, 0, 15, 10, 17), (97, 26, 1, 20, 6, 16), (94, 51, 0, 0, 5, 17),
                    (127, 23, 0, 0, 0, 15)],
    }
    FLAGS = {
        "kw": dict(use_support=False, use_score=False),
        "kw+score": dict(use_support=False),
        "default": {},
    }

    def pinned_stats(self, prepared, combo):
        return [astuple(self.stats_of(prepared, q, **self.FLAGS[combo])) for q in self.QUERIES]

    @pytest.mark.parametrize("combo", ["kw", "kw+score"])
    def test_support_off_is_unchanged(self, prepared_small, combo):
        assert self.pinned_stats(prepared_small, combo) == self.PINNED[combo]

    def test_default_flags_are_unchanged(self, prepared_small):
        assert self.pinned_stats(prepared_small, "default") == self.PINNED["default"]

    def test_support_refines_fewer(self, prepared_small):
        fewer = 0
        for q in self.QUERIES:
            kw = self.stats_of(prepared_small, q, use_support=False, use_score=False)
            kw_sup = self.stats_of(prepared_small, q, use_score=False)
            assert kw_sup.refined + kw_sup.support == kw.refined
            fewer += kw_sup.refined < kw.refined
        assert fewer > 0
