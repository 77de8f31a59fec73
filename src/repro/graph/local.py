"""Driver-side graph snapshot and reference algorithms.

The online TopL-ICDE phase (paper Alg. 3) is a latency-sensitive best-first
search: per candidate center it extracts a seed community and runs a
Dijkstra-style influence computation. Doing that as per-candidate Spark jobs
would add seconds of scheduling overhead per candidate, so — as documented in
DESIGN.md §3 — the online phase runs against this collected snapshot, while
the *offline* phase (and all bulk work) uses the Spark implementations in
``graph/``/``influence/``. Tests assert the two agree.

Everything here is pure Python + stdlib (heapq), deterministic, and sized for
graphs that fit comfortably on the driver (≤ a few hundred thousand edges).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import pandas as pd

#: Tolerance when comparing path products (floating max-product relaxation).
EPS = 1e-12


@dataclass
class LocalGraph:
    """Adjacency snapshot of a :class:`~repro.graph.types.SocialGraph`."""

    #: symmetric structural adjacency: v -> set of neighbours
    adj: Dict[int, Set[int]]
    #: directed influence edges: u -> list of (v, p_uv)
    out: Dict[int, List[Tuple[int, float]]]
    #: exact keyword sets per vertex
    keywords: Dict[int, FrozenSet[str]]
    #: 64-bit keyword bit vector per vertex
    bv: Dict[int, int]
    #: global edge support (paper's ub_sup(e) upper bound), canonical (u<v)
    support: Dict[Tuple[int, int], int] = field(default_factory=dict)

    # ------------------------------------------------------------------ build
    @classmethod
    def from_pandas(
        cls,
        vertices: pd.DataFrame,
        edges: pd.DataFrame,
        support: Optional[pd.DataFrame] = None,
    ) -> "LocalGraph":
        """Build from pandas frames with the SocialGraph schemas.

        ``support`` (optional) is a canonical ``(u, v, support)`` frame as
        produced by :func:`repro.graph.triangles.edge_support`.
        """
        adj: Dict[int, Set[int]] = {int(i): set() for i in vertices["id"]}
        out: Dict[int, List[Tuple[int, float]]] = {int(i): [] for i in vertices["id"]}
        for s, d, w in zip(edges["src"], edges["dst"], edges["weight"]):
            s, d = int(s), int(d)
            if s == d:
                continue
            adj.setdefault(s, set()).add(d)
            adj.setdefault(d, set()).add(s)
            out.setdefault(s, []).append((d, float(w)))
        kw = {
            int(i): frozenset(k) for i, k in zip(vertices["id"], vertices["keywords"])
        }
        bv = {int(i): int(b) for i, b in zip(vertices["id"], vertices["bv"])}
        sup: Dict[Tuple[int, int], int] = {}
        if support is not None:
            sup = {
                (int(u), int(v)): int(s)
                for u, v, s in zip(support["u"], support["v"], support["support"])
            }
        return cls(adj=adj, out=out, keywords=kw, bv=bv, support=sup)

    # ----------------------------------------------------------------- basics
    def vertices(self) -> List[int]:
        return list(self.adj.keys())

    def undirected_edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u, nbrs in self.adj.items() for v in nbrs if u < v]

    # -------------------------------------------------------------------- BFS
    def khop(
        self, center: int, r: int, allowed: Optional[Set[int]] = None
    ) -> Dict[int, int]:
        """Hop distances from ``center`` up to ``r``, optionally restricted.

        With ``allowed``, the BFS only traverses vertices in ``allowed``
        (used to enumerate the maximal keyword-satisfying candidate set: any
        valid seed community's vertices are reachable from the center through
        keyword-matching vertices only).
        """
        if allowed is not None and center not in allowed:
            return {}
        if center not in self.adj:
            return {}
        dist = {center: 0}
        frontier = [center]
        for d in range(1, r + 1):
            nxt: List[int] = []
            for u in frontier:
                for v in self.adj[u]:
                    if v in dist:
                        continue
                    if allowed is not None and v not in allowed:
                        continue
                    dist[v] = d
                    nxt.append(v)
            if not nxt:
                break
            frontier = nxt
        return dist

    # -------------------------------------------------------- induced support
    def induced_support(
        self, vset: Set[int], edges: Optional[Set[Tuple[int, int]]] = None
    ) -> Dict[Tuple[int, int], int]:
        """Edge support (triangle count per edge) of an induced subgraph.

        ``edges`` restricts the subgraph further (used during peeling);
        defaults to all adjacency edges inside ``vset``.
        """
        if edges is None:
            edges = {
                (u, v) for u in vset for v in self.adj[u] if v in vset and u < v
            }
        nbr: Dict[int, Set[int]] = {v: set() for v in vset}
        for u, v in edges:
            nbr[u].add(v)
            nbr[v].add(u)
        return {(u, v): len(nbr[u] & nbr[v]) for (u, v) in edges}

    # ----------------------------------------------------------------- truss
    def ktruss(
        self, vset: Set[int], k: int
    ) -> Tuple[Set[int], Set[Tuple[int, int]]]:
        """Maximal k-truss of the induced subgraph on ``vset``.

        Iteratively peels edges with support < k-2 (paper Def. 2 / Lemma 2),
        then drops isolated vertices. Returns (vertices, canonical edges).
        """
        edges = {(u, v) for u in vset for v in self.adj[u] if v in vset and u < v}
        need = max(k - 2, 0)
        while True:
            sup = self.induced_support(vset, edges)
            bad = {e for e, s in sup.items() if s < need}
            if not bad:
                break
            edges -= bad
        alive = {u for e in edges for u in e}
        return alive, edges

    def connected_component(
        self, start: int, edges: Set[Tuple[int, int]]
    ) -> Set[int]:
        """Component of ``start`` in the graph spanned by ``edges``."""
        nbr: Dict[int, Set[int]] = {}
        for u, v in edges:
            nbr.setdefault(u, set()).add(v)
            nbr.setdefault(v, set()).add(u)
        if start not in nbr:
            return {start}
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in nbr[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    # ----------------------------------------------------------------- k-core
    def kcore(self, vset: Set[int], k: int) -> Set[int]:
        """Maximal k-core of the induced subgraph on ``vset`` (case study)."""
        alive = set(vset)
        deg = {v: len(self.adj[v] & alive) for v in alive}
        queue = [v for v in alive if deg[v] < k]
        while queue:
            u = queue.pop()
            if u not in alive:
                continue
            alive.discard(u)
            for v in self.adj[u]:
                if v in alive:
                    deg[v] -= 1
                    if deg[v] < k:
                        queue.append(v)
        return alive

    # --------------------------------------------------------- seed community
    def seed_community(
        self, center: int, r: int, k: int, query: Set[str]
    ) -> Optional[FrozenSet[int]]:
        """Maximal seed community at ``center`` (paper Def. 2), or None.

        Fixpoint loop: keyword-filtered r-hop candidate set → k-truss peel →
        connected component of the center → radius re-check *inside* the
        community (Def. 2 measures distance within g) → repeat until stable.
        The candidate set shrinks monotonically, so the loop terminates.
        Communities with no edges are rejected for k ≥ 3 (DESIGN.md §4).
        """
        if not (self.keywords.get(center, frozenset()) & query):
            return None
        allowed = {
            v
            for v in self.khop(center, r)
            if self.keywords.get(v, frozenset()) & query
        }
        cur = set(self.khop(center, r, allowed=allowed))
        while cur:
            alive, edges = self.ktruss(cur, k)
            if center not in alive:
                return None
            comp = self.connected_component(center, edges)
            comp_edges = {(u, v) for (u, v) in edges if u in comp and v in comp}
            nbr: Dict[int, Set[int]] = {v: set() for v in comp}
            for u, v in comp_edges:
                nbr[u].add(v)
                nbr[v].add(u)
            dist = {center: 0}
            frontier = [center]
            d = 0
            while frontier and d < r:
                d += 1
                nxt = []
                for u in frontier:
                    for v in nbr[u]:
                        if v not in dist:
                            dist[v] = d
                            nxt.append(v)
                frontier = nxt
            within = set(dist)
            if within == cur:
                if k >= 3 and not comp_edges:
                    return None
                return frozenset(within)
            cur = within
        return None

    # -------------------------------------------------------------- influence
    def influence(self, seed: Iterable[int], theta: float) -> Dict[int, float]:
        """``cpp(g, v)`` for every v in the influenced community ``g^Inf``.

        Multi-source max-product Dijkstra under the MIA model: seeds start at
        1.0; relaxation along directed edges multiplies by ``p_uv``; states
        below ``theta`` are pruned. Because all weights are < 1, path
        products strictly decrease along a path, so every prefix of a maximum
        influence path with endpoint ≥ theta also scores ≥ theta — the
        threshold pruning is exact (tested against brute-force enumeration).
        """
        best: Dict[int, float] = {v: 1.0 for v in seed}
        heap = [(-1.0, v) for v in best]
        heapq.heapify(heap)
        while heap:
            negp, u = heapq.heappop(heap)
            p = -negp
            if p < best.get(u, 0.0) - EPS:
                continue  # stale entry
            for v, w in self.out.get(u, []):
                q = p * w
                if q >= theta and q > best.get(v, 0.0) + EPS:
                    best[v] = q
                    heapq.heappush(heap, (-q, v))
        return best

    def sigma(self, seed: Iterable[int], theta: float) -> float:
        """Influential score σ(g) = Σ_{v∈g^Inf} cpp(g, v) (paper Eq. 5)."""
        return float(sum(self.influence(seed, theta).values()))

    # ------------------------------------------------------------- utilities
    def khop_within(self, vset: Set[int], center: int) -> Dict[int, int]:
        """BFS from center restricted to the induced subgraph on vset."""
        dist = {center: 0}
        frontier = [center]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.adj[u]:
                    if v in vset and v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist
