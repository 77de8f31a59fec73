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
Seed-community extraction, :meth:`LocalGraph.ktruss` and hence ATindex's
edge trussness share one queue-based k-truss peel (:class:`_Peel`) that
counts support once and updates it as edges leave.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import pandas as pd

from repro.graph.types import validate_frames

#: Tolerance when comparing path products (floating max-product relaxation).
EPS = 1e-12

_NO_KEYWORDS: FrozenSet[str] = frozenset()


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

        Raises ValueError on frames that :func:`validate_frames` rejects.
        """
        validate_frames(vertices, edges)
        adj: Dict[int, Set[int]] = {int(i): set() for i in vertices["id"]}
        out: Dict[int, List[Tuple[int, float]]] = {int(i): [] for i in vertices["id"]}
        for s, d, w in zip(edges["src"], edges["dst"], edges["weight"]):
            s, d = int(s), int(d)
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
    def _nbr(self, vset: Set[int]) -> Dict[int, Set[int]]:
        """Neighbour map of the induced subgraph on ``vset``."""
        return {v: self.adj[v] & vset for v in vset}

    def ktruss(
        self, vset: Set[int], k: int
    ) -> Tuple[Set[int], Set[Tuple[int, int]]]:
        """Maximal k-truss of the induced subgraph on ``vset``.

        Peels edges with support < k-2 (paper Def. 2 / Lemma 2) with
        :class:`_Peel`, then drops isolated vertices. Returns (vertices,
        canonical edges).
        """
        nbr = self._nbr(vset)
        _Peel(nbr, k).run()
        alive = {u for u, nu in nbr.items() if nu}
        return alive, {(u, v) for u in alive for v in nbr[u] if u < v}

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

        The candidate set is what a depth-r BFS from the center reaches while
        entering only keyword-matching vertices: every vertex of a valid seed
        community is reachable that way. Its induced subgraph is peeled to
        the k-truss once; then a depth-r BFS from the center over the
        surviving edges keeps the center's component within radius r
        (Def. 2 measures distance inside g). Vertices it misses are removed
        with their edges and the peel resumes, until the BFS reaches every
        remaining vertex. The set only shrinks, so one support count serves
        every round. None once the center has no edge left (so communities
        without edges are rejected, DESIGN.md §4).
        """
        kw, adj = self.keywords, self.adj
        if center not in adj or kw.get(center, _NO_KEYWORDS).isdisjoint(query):
            return None
        cand = {center}
        frontier = [center]
        for _ in range(r):
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in cand and not kw.get(v, _NO_KEYWORDS).isdisjoint(query):
                        cand.add(v)
                        nxt.append(v)
            frontier = nxt
        nbr = self._nbr(cand)
        peel = _Peel(nbr, k, center)
        if not peel.run():
            return None
        while True:
            reached = {center}
            frontier = [center]
            for _ in range(r):
                nxt = []
                for u in frontier:
                    for v in nbr[u]:
                        if v not in reached:
                            reached.add(v)
                            nxt.append(v)
                frontier = nxt
            if len(reached) == len(nbr):
                return frozenset(reached)
            if not peel.drop([v for v in nbr if v not in reached]):
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


class _Peel:
    """Queue-based k-truss peel over a neighbour map, edited in place.

    Support (triangles per edge) is counted once. Removing an edge (u, v)
    decrements the other two edges of every triangle (u, v, w) and queues an
    edge whose support falls below k-2 — the standard truss decomposition
    (Cohen 2008; Wang & Cheng, VLDB 2012). :meth:`drop` removes vertices
    outright (the radius cut in :meth:`LocalGraph.seed_community`) and
    resumes the peel on the same counts.
    """

    def __init__(
        self, nbr: Dict[int, Set[int]], k: int, center: Optional[int] = None
    ) -> None:
        self.nbr = nbr
        self.need = max(k - 2, 0)
        self.center = center
        self.sup: Dict[Tuple[int, int], int] = {}
        self.queue: List[Tuple[int, int]] = []
        for u, nu in nbr.items():
            for v in nu:
                if u < v:
                    s = len(nu & nbr[v])
                    self.sup[(u, v)] = s
                    if s < self.need:
                        self.queue.append((u, v))

    def run(self) -> bool:
        """Remove every queued edge and peel to the k-truss. False as soon
        as the center (if any) has no edge left."""
        nbr, sup, queue, center = self.nbr, self.sup, self.queue, self.center
        low = self.need - 1
        while queue:
            u, v = queue.pop()
            nu, nv = nbr[u], nbr[v]
            if v not in nu:
                continue  # queued twice
            nu.discard(v)
            nv.discard(u)
            for w in nu & nv:
                for e in ((u, w) if u < w else (w, u), (v, w) if v < w else (w, v)):
                    s = sup[e] - 1
                    sup[e] = s
                    if s == low:
                        queue.append(e)
            if (u == center or v == center) and not nbr[center]:
                queue.clear()
                return False
        return center is None or bool(nbr[center])

    def drop(self, vertices: List[int]) -> bool:
        """Remove ``vertices`` with their edges and resume the peel."""
        for x in vertices:
            for y in self.nbr[x]:
                self.queue.append((x, y) if x < y else (y, x))
        ok = self.run()
        for x in vertices:
            del self.nbr[x]
        return ok
