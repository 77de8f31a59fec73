"""Pruning predicates (paper Lemmas 1–7) and their bookkeeping.

Each predicate returns True when the candidate can be *safely discarded*.
All predicates are conservative: pruning power may be lost to bit-vector
collisions or loose bounds, but a pruned candidate can never be a true
answer — `tests/test_pruning.py` checks exactly that against brute force.

Note on Lemma 6: the paper states the index-level support prune as
``ub_sup_r < k``, but a k-truss only requires edge support ≥ k-2 (e.g. K4 is
a 4-truss whose edges have support 2). We implement the safe form
``ub_sup_r < k - 2`` (DESIGN.md §4).
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


def keyword_prune(bv_r, query_bv: int):
    """Lemmas 1/5: no vertex below this entry holds any query keyword.

    ``bv_r`` may be an int or a pandas Series of bit vectors (then the
    result is a boolean Series).
    """
    return (bv_r & query_bv) == 0


def support_prune(ub_sup_r, k: int):
    """Lemmas 2/6 (safe form): no edge can reach support k-2.

    Like :func:`keyword_prune`, also applies elementwise to a Series.
    """
    return ub_sup_r < k - 2


def score_prune(sigma_ub: float, sigma_l: float, have_l: bool) -> bool:
    """Lemmas 4/7: the score upper bound cannot beat the current top-L floor.

    Only applies once L candidates are buffered (σ_L is −∞ before that).
    """
    return have_l and sigma_ub <= sigma_l
