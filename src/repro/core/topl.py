"""Online TopL-ICDE processing (paper Algorithm 3).

Best-first traversal of the tree index with one max-heap that holds index
nodes and leaf entries (centers). A popped node is expanded and a popped
entry is refined — maximal seed community extraction (Def. 2 fixpoint)
plus the exact ``calculate_influence`` — against the driver-side graph
snapshot. Every child of an expanded node, node or entry alike, gets one
key, its bound ``σ_z``, and one chain of tests: the keyword test (Lemmas
1/5), the score test (Lemmas 4/7), and for an entry the support test;
a child that passes them all is pushed.

The support family (Lemmas 2/6) is tested at the leaves only, and exactly:
the query's keyword k-truss T_k(G_Q) is peeled once per query
(:meth:`LocalGraph.keyword_truss`, a :class:`~repro.graph.local.KeywordTruss`
record), a center with no edge in it is charged to
``PruningStats.support``, and the others extract their communities on its
edges, :func:`refine` handing the record to ``seed_community`` (DESIGN.md
§4). A center v of T_k(G_Q) is keyed by min(σ(C, θ), σ(B, θ)), where C is
its component of T_k(G_Q) and B its depth-r ball in T_k(G), the graph's
own k-truss: every seed community at the center lies in C and in B, and σ
is monotone in the seed set (DESIGN.md §3, "Component σ bound" and
"Truss-ball σ bound"). σ(B, θ) ≤ σ_z(hop(v, r)), since B ⊆ hop(v, r) and
θ_z ≤ θ, so σ_z is left out of the key. B does not depend on Q, so
σ(B, θ) is kept on the snapshot per (k, r, θ) (``LocalGraph.ball_memo``)
and serves every later query.

The traversal terminates early as soon as the popped key cannot beat the
current top-L floor σ_L (heap order ⇒ nothing later can either).

:func:`refine` and :func:`rank` are the one refinement kernel and the one
ranking rule of every online path: this traversal, the brute-force
reference, the ATindex baseline and the dataflow variant. ``refine`` scores
each distinct (g, θ) once per snapshot through ``LocalGraph.sigma_memo``
(:func:`score`, which both leaf bounds read too), and keeps no
influenced community. TopL ranks by σ alone, so an answer's influenced
community (``Community.rows``) is computed only when something reads it:
DTopL's diversity score does (Eq. 6). The first read of a (g, θ) stores it
in ``LocalGraph.cpp_memo``, the one source every answer with the same
(g, θ) reads it from.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.core.index import IndexNode
from repro.core.keywords import bv_of
from repro.core.precompute import z_index
from repro.core.pruning import PruningStats, keyword_prune, score_prune
from repro.graph.local import KeywordTruss, LocalGraph, Rows


@dataclass(frozen=True)
class Query:
    """One TopL-ICDE query (Def. 4): (Q, k, r, θ, L)."""

    keywords: FrozenSet[str]
    k: int
    r: int
    theta: float
    L: int

    def __post_init__(self):
        if not self.keywords:
            raise ValueError("query keyword set Q is empty")
        if self.k < 2:
            raise ValueError(f"k={self.k}: a k-truss needs k >= 2")
        if self.r < 1:
            raise ValueError(f"r={self.r}: the radius must be >= 1")
        if not 0 < self.theta <= 1:
            raise ValueError(f"theta={self.theta} outside (0, 1]")
        if self.L < 1:
            raise ValueError(f"L={self.L}: at least one community must be asked for")


@dataclass(frozen=True, init=False)
class Community:
    """A seed community answer: its center, vertex set g and σ(g, θ), with
    the snapshot and θ it was scored at.

    :attr:`rows` and :attr:`cpp` are the influenced community, read from the
    snapshot's ``cpp_memo``. ``repr``, ``==`` and ``hash`` cover center,
    vertices and σ, and compute nothing.
    """

    center: int
    vertices: FrozenSet[int]
    sigma: float
    graph: Optional[LocalGraph] = field(default=None, repr=False, compare=False)
    theta: Optional[float] = field(default=None, repr=False, compare=False)

    def __init__(
        self,
        center: int,
        vertices: FrozenSet[int],
        sigma: float,
        graph: Optional[LocalGraph] = None,
        theta: Optional[float] = None,
    ) -> None:
        if (graph is None) != (theta is None):
            raise ValueError("graph and theta go together")
        # one write past the frozen __setattr__: the generated __init__
        # makes one call per field, about twice the cost, and a query
        # builds tens of communities
        self.__dict__.update(
            center=center, vertices=vertices, sigma=sigma, graph=graph, theta=theta
        )

    @property
    def rows(self) -> Rows:
        """cpp(g, ·) over g^Inf (Eq. 6) as the snapshot's ``cpp_memo``
        arrays (:meth:`LocalGraph.influenced`), computed by one influence
        call on the first read of (g, θ). Raises ValueError on a community
        built without a graph: an influenced community always holds g, so
        none is empty."""
        if self.graph is None:
            raise ValueError(f"community at {self.center} was not scored on a graph")
        return self.graph.influenced(self.vertices, self.theta)

    @property
    def cpp(self) -> Dict[int, float]:
        """:attr:`rows` as a ``{vertex: cpp}`` dict, a fresh one per read."""
        rows = self.rows  # raises first on a community without a graph
        return self.graph.cpp_of(rows)


def refine(
    local: LocalGraph,
    center: int,
    query: Query,
    seen: Set[FrozenSet[int]],
    truss: Optional[KeywordTruss] = None,
) -> Optional[Community]:
    """Refine one candidate center: its maximal seed community, scored.

    Returns None if ``center`` hosts no seed community (Def. 2) or if that
    community's vertex set is already in ``seen``; otherwise adds it to
    ``seen`` and returns it with σ (Eq. 5). The ``seen`` check runs before
    scoring because many centers of one community extract the same vertex
    set. σ is read through :func:`score`. ``truss``, the query's keyword
    truss, is handed to :meth:`LocalGraph.seed_community`.
    """
    g = local.seed_community(center, query.r, query.k, query.keywords, truss)
    if g is None or g in seen:
        return None
    seen.add(g)
    return Community(center, g, score(local, g, query.theta), local, query.theta)


def score(local: LocalGraph, g: FrozenSet[int], theta: float) -> float:
    """σ(g, θ) from ``local.sigma_memo``, with no influence call when an
    earlier query scored the same (g, θ); a miss is computed and memoised."""
    key = (g, theta)
    sigma = local.sigma_memo.get(key)
    if sigma is None:
        sigma = local.sigma_memo[key] = local.sigma(g, theta)
    return sigma


def rank(communities: Iterable[Optional[Community]], L: int) -> List[Community]:
    """The top ``L`` communities by (−σ, center), one per vertex set.

    ``None`` entries are skipped; of several communities with the same
    vertex set, the one with the smallest center is kept.
    """
    best: Dict[FrozenSet[int], Community] = {}
    for c in communities:
        if c is not None and (
            c.vertices not in best or c.center < best[c.vertices].center
        ):
            best[c.vertices] = c
    return sorted(best.values(), key=lambda c: (-c.sigma, c.center))[:L]


def topl_icde(
    local: LocalGraph,
    index: IndexNode,
    query: Query,
    thetas: Sequence[float],
    *,
    use_keyword: bool = True,
    use_support: bool = True,
    use_score: bool = True,
    stats: Optional[PruningStats] = None,
) -> List[Community]:
    """Algorithm 3. Returns up to L communities, best σ first, ordered by
    :func:`rank`'s key (−σ, center).

    ``use_*`` flags switch individual pruning rules off for the ablation
    study (Fig. 4); with ``use_score=False`` the heap early-termination is
    disabled too (it is the same Lemma 7 bound), and so are the component
    and truss-ball σ bounds. With ``use_support=False`` there is no keyword
    truss, hence neither leaf bound, and every leaf entry that passes
    the other tests is refined when the heap pops it, as with the default
    flags. Either flag off leaves ``ball_memo`` untouched.
    """
    if not (1 <= query.r <= len(index.sigma)):
        raise ValueError(f"query radius {query.r} outside precomputed [1, {len(index.sigma)}]")
    stats = stats if stats is not None else PruningStats()
    z = z_index(thetas, query.theta)
    ri = query.r - 1
    qbv = bv_of(query.keywords)

    # top-L buffer: min-heap of (sigma, tiebreak, Community); σ_L = floor.
    results: List[tuple] = []
    tiebreak = itertools.count()
    seen: Set[FrozenSet[int]] = set()

    # Lemma 2 at the leaves: every seed community lies in T_k(G_Q), so a
    # center outside it hosts none, and the rest extract on its edges.
    truss = local.keyword_truss(query.keywords, query.k) if use_support else None
    # σ(C, θ) of the components met so far: one σ memo read per component,
    # not one per center
    bounds: Dict[FrozenSet[int], float] = {}
    # σ(B, θ) of each center's depth-r ball B in T_k(G), which no query
    # keyword enters: one dict per (k, r, θ), kept on the snapshot
    balls = (
        local.ball_memo.setdefault((query.k, query.r, query.theta), {})
        if use_support and use_score
        else None
    )
    heap: List[tuple] = [(-index.sigma[ri][z], next(tiebreak), index)]
    while heap:
        neg_key, _, item = heapq.heappop(heap)
        is_node = isinstance(item, IndexNode)
        stats.visited_nodes += is_node
        # σ_L, read once per pop: the buffer changes only when an entry is
        # refined, never while a node's children are tested
        sigma_l = results[0][0] if len(results) >= query.L else -math.inf
        if use_score and -neg_key <= sigma_l:
            # Lemma 7 on the heap order: every remaining node and entry is
            # bounded by this key, so the whole frontier is pruned at once.
            stats.heap_terminated += sum(n.size for _, _, n in heap) + item.size
            break
        if not is_node:
            stats.refined += 1
            comm = refine(local, item.vertex, query, seen, truss)
            if comm is None:
                continue
            if len(results) < query.L:
                heapq.heappush(results, (comm.sigma, next(tiebreak), comm))
            elif comm.sigma > results[0][0]:
                heapq.heapreplace(results, (comm.sigma, next(tiebreak), comm))
            continue
        leaf = item.is_leaf
        for child in item.entries if leaf else item.children:
            member = leaf and use_support and child.vertex in truss.adj
            if member and use_score:
                # every seed community at the center lies in its component
                # C of T_k(G_Q) and in its ball B of T_k(G), so σ(C, θ) and
                # σ(B, θ) bound it; σ(B, θ) ≤ σ_z, as B ⊆ hop(v, r) and
                # θ_z ≤ θ (DESIGN.md §3)
                v = child.vertex
                whole = truss.components[v]
                bound = bounds.get(whole)
                if bound is None:
                    bound = bounds[whole] = score(local, whole, query.theta)
                ball = balls.get(v)
                if ball is None:
                    ball = balls[v] = score(
                        local, local.truss_ball(v, query.k, query.r), query.theta
                    )
                key = min(bound, ball)
            else:
                key = child.sigma[ri][z]
            # Lemma 1/5 on the centers' own bit vectors (the center must be
            # in g, Def. 2). Every hop holds its center, so the test on the
            # hop's bit vector would never prune more. A center of T_k(G_Q)
            # holds a query keyword, so the test never fires on it.
            if use_keyword and keyword_prune(child.bv_self, qbv):
                stats.keyword += child.size
            elif use_score and score_prune(key, sigma_l):
                stats.score += child.size
            elif leaf and use_support and not member:
                # no edge in T_k(G_Q), so no seed community (Lemma 2)
                stats.support += 1
            else:
                heapq.heappush(heap, (-key, next(tiebreak), child))

    return rank((c for _, _, c in results), query.L)


def brute_force_topl(
    local: LocalGraph, query: Query
) -> List[Community]:
    """Reference answer: refine every vertex, no index, no pruning.

    Used by tests to prove the pruned traversal exact.
    """
    seen: Set[FrozenSet[int]] = set()
    return rank(
        (refine(local, v, query, seen) for v in sorted(local.vertices())), query.L
    )
