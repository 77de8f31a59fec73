"""DTopL-ICDE — diversified top-L detection (paper Sec. VII).

The diversity score ``D(S) = Σ_v max_{g∈S} cpp(g, v)`` (Eq. 6) is monotone
and submodular, and maximising it over L communities is NP-hard (Lemma 8,
reduction from Maximum Coverage). The paper's pipeline:

1. run TopL-ICDE (Alg. 3) for the top-``n·L`` candidates;
2. pick L of them greedily by marginal gain ΔD_g(S) —
   * ``Greedy_WoP``: recompute every candidate's gain each round;
   * ``Greedy_WP`` (Alg. 4): lazy greedy — a max-heap of stale gains with
     round stamps; submodularity (gains only shrink) makes a re-validated
     top-of-heap provably optimal for the round (Lemma 9), skipping most
     recomputations;
3. ``Optimal``: exhaustive search over all C(|T|, L) combinations — the
   accuracy yardstick (Fig. 6e) and the "three orders of magnitude" baseline.

Both greedy variants return identical sets (same tie-breaking); tests verify
that, the (1-1/e)·ε guarantee behaviour, and submodularity itself.

Every step reads a candidate's influenced community from one source, the
``cpp_memo`` arrays of the snapshot it was scored on (:func:`pool_rows`).
The greedy gains, ``Optimal``'s matrix and D(S) itself (:func:`diversity`)
all run on those arrays.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.index import IndexNode
from repro.core.topl import Community, Query, topl_icde
from repro.graph.local import LocalGraph, Rows


@dataclass
class DiversifyStats:
    """Work counters: gain evaluations vs. the n·L·L worst case."""

    gain_evaluations: int = 0
    candidates: int = 0
    pruned_evaluations: int = 0


def pool_rows(candidates: Sequence[Community]) -> Tuple[List[Rows], int]:
    """Every candidate's influenced community as the (positions, values)
    arrays of their snapshot's ``cpp_memo``, and the number of positions.

    Raises ValueError when a candidate was scored on no graph, or on
    another snapshot than the first: positions mean nothing across
    snapshots.
    """
    if not candidates:
        return [], 0
    graph = candidates[0].graph
    if graph is None or any(c.graph is not graph for c in candidates):
        raise ValueError("a pool's communities must be scored on one snapshot")
    return [c.rows for c in candidates], len(graph.positions())


def gain(acc: np.ndarray, rows: Rows) -> float:
    """ΔD_g(S) = D(S ∪ {g}) − D(S), given ``acc`` = the pointwise max over S
    by position: the sum of max(cpp(g, v) − acc[v], 0) over g^Inf.

    The terms are added one at a time in the rows' order (a sequential
    ``cumsum``), so the float is the one a loop over the cpp dict gives;
    adding each ``+0.0`` is exact. ``np.sum`` adds pairwise, rounds
    otherwise and can break a near-tie the other way.
    """
    pos, val = rows
    d = val - acc[pos]
    np.maximum(d, 0.0, out=d)
    return float(d.cumsum()[-1]) if d.size else 0.0


def merge(acc: np.ndarray, rows: Rows) -> None:
    """``acc`` := the pointwise max of ``acc`` and cpp(g, ·), in place."""
    pos, val = rows
    acc[pos] = np.maximum(acc[pos], val)


def diversity(selected: Sequence[Community]) -> float:
    """D(S) = Σ_v max_{g∈S} cpp(g, v) (Eq. 6), merged on the arrays."""
    rows, size = pool_rows(selected)
    acc = np.zeros(size)
    for r in rows:
        merge(acc, r)
    return float(acc.sum())


def greedy_wp(
    candidates: Sequence[Community], L: int, stats: Optional[DiversifyStats] = None
) -> List[Community]:
    """Algorithm 4: lazy greedy with diversity-score pruning (Lemma 9).

    Heap keys start at σ(g) = ΔD_g(∅); an entry popped with a stale round
    stamp is re-evaluated against the current S and pushed back. A popped
    entry whose stamp is current is the round's argmax — every candidate
    still below it in the heap was pruned without recomputation.
    """
    stats = stats if stats is not None else DiversifyStats()
    stats.candidates = len(candidates)
    rows, size = pool_rows(candidates)
    heap: List[Tuple[float, int, int]] = []  # (-gain, tiebreak, cand index)
    rounds = [0] * len(candidates)
    for i, c in enumerate(candidates):
        heapq.heappush(heap, (-c.sigma, i, i))
        stats.gain_evaluations += 1  # σ(g) plays ΔD_g(∅)
    selected: List[Community] = []
    acc = np.zeros(size)
    round_no = 0
    while heap and len(selected) < L:
        neg_gain, tb, i = heapq.heappop(heap)
        if rounds[i] == round_no:
            selected.append(candidates[i])
            merge(acc, rows[i])
            round_no += 1
        else:
            stats.gain_evaluations += 1
            rounds[i] = round_no
            heapq.heappush(heap, (-gain(acc, rows[i]), tb, i))
    stats.pruned_evaluations = (
        len(candidates) * len(selected) - stats.gain_evaluations
    )
    return selected


def greedy_wop(
    candidates: Sequence[Community], L: int, stats: Optional[DiversifyStats] = None
) -> List[Community]:
    """Greedy without pruning: every round scans every remaining candidate."""
    stats = stats if stats is not None else DiversifyStats()
    stats.candidates = len(candidates)
    rows, size = pool_rows(candidates)
    remaining = list(range(len(candidates)))
    selected: List[Community] = []
    acc = np.zeros(size)
    while remaining and len(selected) < L:
        best_i, best_gain = None, -1.0
        for i in remaining:
            g = gain(acc, rows[i])
            stats.gain_evaluations += 1
            # tie-break on candidate order = insertion (σ-descending) order,
            # identical to greedy_wp's heap tiebreak
            if g > best_gain + 1e-12:
                best_i, best_gain = i, g
        selected.append(candidates[best_i])
        merge(acc, rows[best_i])
        remaining.remove(best_i)
    return selected


def optimal(
    candidates: Sequence[Community], L: int
) -> Tuple[List[Community], float, int]:
    """Exhaustive maximum of D(S) over all size-L subsets of the candidates.

    DFS over combinations in lexicographic order with running pointwise-max
    vectors, so sibling combinations share their common prefix's work —
    identical answers (and tie-breaking) to naive ``itertools.combinations``
    enumeration (tested), but ~L× less arithmetic. Still exponential; this
    *is* the paper's "three orders of magnitude slower" baseline.
    """
    n = len(candidates)
    L = min(L, n)
    if L == 0:
        return [], 0.0, 0
    # one column per position that some candidate influences
    rows, _ = pool_rows(candidates)
    cols = np.unique(np.concatenate([pos for pos, _ in rows]))
    mat = np.zeros((n, len(cols)))
    for i, (pos, val) in enumerate(rows):
        mat[i, np.searchsorted(cols, pos)] = val
    best = {"d": -1.0, "combo": (), "count": 0}

    def dfs(start: int, chosen: tuple, acc: "np.ndarray") -> None:
        if len(chosen) == L:
            best["count"] += 1
            d = float(acc.sum())
            if d > best["d"] + 1e-12:
                best["d"] = d
                best["combo"] = chosen
            return
        remaining = L - len(chosen)
        for i in range(start, n - remaining + 1):
            dfs(i + 1, chosen + (i,), np.maximum(acc, mat[i]))

    dfs(0, (), np.zeros(len(cols)))
    return [candidates[i] for i in best["combo"]], best["d"], best["count"]


def dtopl_icde(
    local: LocalGraph,
    index: IndexNode,
    query: Query,
    thetas: Sequence[float],
    *,
    n: int = 5,
    method: str = "wp",
    stats: Optional[DiversifyStats] = None,
) -> List[Community]:
    """Full DTopL-ICDE pipeline: top-(n·L) via Alg. 3, then refinement.

    ``method``: ``"wp"`` (Alg. 4), ``"wop"``, or ``"optimal"``. Raises
    ValueError for any other method and for ``n < 1`` before Alg. 3 runs.
    """
    if method not in ("wp", "wop", "optimal"):
        raise ValueError(f"unknown method {method!r}")
    if n < 1:
        raise ValueError(f"n={n}: the candidate pool holds n*L communities, n >= 1")
    stats = stats if stats is not None else DiversifyStats()
    pool = topl_icde(local, index, replace(query, L=query.L * n), thetas)
    if method == "wp":
        return greedy_wp(pool, query.L, stats)
    if method == "wop":
        return greedy_wop(pool, query.L, stats)
    return optimal(pool, query.L)[0]
