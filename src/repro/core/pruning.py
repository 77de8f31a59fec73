"""Pruning predicates (paper Lemmas 1–7) and their bookkeeping.

Each predicate returns True when the candidate can be *safely discarded*.
All predicates are conservative: pruning power may be lost to bit-vector
collisions or loose bounds, but a pruned candidate can never be a true
answer — `tests/test_pruning.py` checks exactly that against brute force.

The support family (Lemmas 2/6) has no predicate here: Algorithm 3 tests
it at the leaves as membership in the query's keyword truss T_k(G_Q)
(:meth:`LocalGraph.keyword_truss`), which is stricter than the paper's
``ub_sup_r`` bound and never prunes a valid center (DESIGN.md §4).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PruningStats:
    """Counters for the ablation study (paper Fig. 4).

    Counts are in units of *candidate centers* (r-hop subgraphs): an
    index-level prune of an entry covering ``size`` vertices counts as
    ``size`` pruned candidates, matching the paper's "number of pruned
    candidate communities". Every vertex lands in exactly one of
    ``keyword``, ``support``, ``score``, ``heap_terminated`` and ``refined``.

    ``heap_terminated`` counts what the Lemma 7 stop leaves unexpanded: the
    ``size`` of every index node and leaf entry still in the traversal heap,
    the popped one included. ``visited_nodes`` counts index nodes popped from
    the heap, not leaf entries.
    """

    keyword: int = 0
    support: int = 0
    score: int = 0
    heap_terminated: int = 0
    refined: int = 0
    visited_nodes: int = 0

    @property
    def total_pruned(self) -> int:
        return self.keyword + self.support + self.score + self.heap_terminated


def keyword_prune(bv: int, query_bv: int) -> bool:
    """Lemmas 1/5: no vertex below this entry holds any query keyword."""
    return (bv & query_bv) == 0


def score_prune(sigma_ub: float, sigma_l: float) -> bool:
    """Lemmas 4/7: the score upper bound cannot beat the current top-L floor.

    σ_L is −∞ until L candidates are buffered, so nothing is pruned before.
    """
    return sigma_ub <= sigma_l
