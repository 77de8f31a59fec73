"""Driver-side graph snapshot and reference algorithms.

The online TopL-ICDE phase (paper Alg. 3) is a latency-sensitive best-first
search: per candidate center it extracts a seed community and computes its
influence. Doing that as per-candidate Spark jobs would add seconds of
scheduling overhead per candidate, so — as documented in DESIGN.md §3 — the
online phase runs against this collected snapshot, while the *offline* phase
(and all bulk work) uses the Spark implementations in ``graph/`` and
``influence/``. Tests assert the two agree.

Everything here is pure Python + stdlib (heapq), deterministic, and sized for
graphs that fit comfortably on the driver (≤ a few hundred thousand edges).
Seed-community extraction (where it peels), :meth:`LocalGraph.ktruss`,
the per-query keyword truss (:meth:`LocalGraph.keyword_truss`) and
hence ATindex's edge trussness share one queue-based k-truss peel
(:class:`_Peel`) that counts support once and updates it as edges leave.
It first cuts vertices of degree ≤ k-2, cascading (the (k-1)-core cut,
the routine :meth:`LocalGraph.kcore` runs too): a vertex with an edge in a
k-truss has that edge's other end and its k-2 common neighbours there, so
no vertex cut had one. The keyword truss peels from T_k(G), the full
graph's own k-truss restricted to V_Q, peeled once per k and kept on the
snapshot: T_k(G_Q) is a k-truss subgraph of G, so it lies in T_k(G).
Influence (:meth:`LocalGraph.influence`) merges per-source maximum
influence out-arborescences, each built once by a max-product Dijkstra and
memoised on the snapshot, so communities that share seed vertices, within
a query or across queries, reuse them.

Each distinct community is scored once (DESIGN.md §3): a keyword truss is
a :class:`KeywordTruss` record of (Q, k), its neighbour map and its
connected components, and :meth:`LocalGraph.seed_community` given it
returns a center's component outright when the depth-r ball covers it, and
the ball itself when every edge between two vertices at depth r keeps k-2
triangles inside it (the ring test), peeling only when both miss. The
snapshot owns every memo, each a field with ``init=False``, so a copy or a
new instance starts empty: a σ(g, θ) memo (``sigma_memo``) that
:func:`repro.core.topl.refine` reads before computing influence, and the
keyword -> vertices map that gives each query its V_Q. ``cpp_memo`` keeps
each influenced community read so far, as read-only (positions, values)
arrays over one vertex -> 0..n-1 map (:meth:`LocalGraph.influenced`), the
one source of every answer's influenced community. Only a read of an
answer's ``Community.rows`` fills it (DTopL's selection and D(S) read
them), never scoring, so TopL leaves it empty.

``ball_memo`` keeps, per (k, r, θ), σ(B, θ) of each center's depth-r ball
B in T_k(G) (:meth:`LocalGraph.truss_ball`), which holds every seed
community at the center whatever the query keywords, so it bounds them
all; :func:`repro.core.topl.topl_icde` keys the centers of T_k(G_Q) with it
(DESIGN.md §3, "Truss-ball σ bound").
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

import numpy as np
import pandas as pd

from repro.graph.types import validate_frames

#: Tolerance when comparing path products (floating max-product relaxation).
EPS = 1e-12

_NO_KEYWORDS: FrozenSet[str] = frozenset()

#: an influenced community as arrays: (positions of its vertices, their cpp)
Rows = Tuple[np.ndarray, np.ndarray]


def cpp_rows(cpp: Dict[int, float], at: Dict[int, int]) -> Rows:
    """``cpp`` as read-only (positions, values) arrays, in the dict's own
    order, with positions from the map ``at``."""
    pos = np.fromiter(map(at.__getitem__, cpp), np.intp, len(cpp))
    val = np.fromiter(cpp.values(), np.float64, len(cpp))
    pos.flags.writeable = val.flags.writeable = False
    return pos, val


class KeywordTruss(NamedTuple):
    """T_k(G_Q), as :meth:`LocalGraph.keyword_truss` peels it once per
    query; :meth:`LocalGraph.seed_community` takes it at the same (Q, k)."""

    #: the query keywords Q and the k of T_k(G_Q)
    query: FrozenSet[str]
    k: int
    #: neighbour map of T_k(G_Q): its vertices are the centers with an edge
    #: in it
    adj: Dict[int, Set[int]]
    #: vertex -> its connected component, one frozenset shared by the
    #: component's vertices
    components: Dict[int, FrozenSet[int]]


def _memo(factory=dict):
    """A memo field: outside ``==`` and ``repr``, and ``init=False``, so a
    ``dataclasses.replace`` copy or a new instance starts with it empty."""
    return field(default_factory=factory, init=False, repr=False, compare=False)


@dataclass
class LocalGraph:
    """Adjacency snapshot of a :class:`~repro.graph.types.SocialGraph`.

    The first four fields are the graph; every field outside ``==``
    (``compare=False``) is a memo of this snapshot alone.
    """

    #: symmetric structural adjacency: v -> set of neighbours
    adj: Dict[int, Set[int]]
    #: directed influence edges: u -> list of (v, p_uv)
    out: Dict[int, List[Tuple[int, float]]]
    #: exact keyword sets per vertex
    keywords: Dict[int, FrozenSet[str]]
    #: 64-bit keyword bit vector per vertex
    bv: Dict[int, int]
    #: memo of :meth:`influence`: source -> (lowest θ asked, MIOA(source, θ)
    #: in preorder)
    _arbo: Dict[int, Tuple[float, List[Tuple[float, int, int]]]] = _memo()
    #: σ(g, θ) of every community scored on this graph, by (vertex set, θ);
    #: read and filled by :func:`repro.core.topl.refine`
    sigma_memo: Dict[Tuple[FrozenSet[int], float], float] = _memo()
    #: cpp(g, ·) of every influenced community read on this graph, by
    #: (vertex set, θ) like ``sigma_memo``, as :func:`cpp_rows` over
    #: :meth:`positions`; filled by :meth:`influenced` on a community's
    #: first read, never by scoring
    cpp_memo: Dict[Tuple[FrozenSet[int], float], Rows] = _memo()
    #: vertex -> position 0..n-1, and position -> vertex, built by the
    #: first :meth:`positions` call
    _positions: Dict[int, int] = _memo()
    _order: List[int] = _memo(list)
    #: :attr:`support`, once read. A field, not ``functools.cached_property``:
    #: its write through ``__dict__`` slows every later attribute read on the
    #: instance, ATindex's queries included.
    _support: Dict[Tuple[int, int], int] = _memo()
    #: keyword -> the vertices holding it, built by the first
    #: :meth:`holding` call
    _holders: Dict[str, Set[int]] = _memo()
    #: k -> the neighbour map of T_k(G), the full graph's maximal k-truss,
    #: peeled by the first :meth:`truss` call at k
    _trusses: Dict[int, Dict[int, Set[int]]] = _memo()
    #: (k, r, θ) -> center -> σ(B_r(center), θ), where B_r(center) is the
    #: center's depth-r ball in T_k(G) (:meth:`truss_ball`), which holds
    #: every seed community at the center; read and filled by
    #: :func:`repro.core.topl.topl_icde`, its σ read through ``sigma_memo``.
    #: No query keyword enters it, so queries that differ in Q share it.
    ball_memo: Dict[Tuple[int, int, float], Dict[int, float]] = _memo()

    # ------------------------------------------------------------------ build
    @classmethod
    def from_pandas(cls, vertices: pd.DataFrame, edges: pd.DataFrame) -> "LocalGraph":
        """Build from pandas frames with the SocialGraph schemas.

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
        return cls(adj=adj, out=out, keywords=kw, bv=bv)

    # ----------------------------------------------------------------- basics
    def vertices(self) -> List[int]:
        return list(self.adj.keys())

    def undirected_edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u, nbrs in self.adj.items() for v in nbrs if u < v]

    def holding(self, query: Iterable[str]) -> Set[int]:
        """V_Q: the vertices of this graph holding a keyword of ``query``.

        Read from a keyword -> vertices map, built on the first call, so a
        query costs one union over its keywords instead of a scan of every
        vertex.
        """
        holders = self._holders
        if not holders:
            kw = self.keywords
            for v in self.adj:
                for w in kw.get(v, _NO_KEYWORDS):
                    holders.setdefault(w, set()).add(v)
        return set().union(*(holders.get(w, ()) for w in query))

    @property
    def support(self) -> Dict[Tuple[int, int], int]:
        """Edge support in this graph, canonical (u < v): the ``ub_sup(e)``
        behind ``ub_sup_r``. Counted on first read; no online path reads it."""
        if not self._support:
            self._support.update(self.induced_support(set(self.adj)))
        return self._support

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
    def induced_support(self, vset: Set[int]) -> Dict[Tuple[int, int], int]:
        """Edge support (triangle count per edge) of the subgraph induced by
        ``vset``, canonical (u < v)."""
        nbr = self._nbr(vset)
        return {(u, v): len(nu & nbr[v]) for u, nu in nbr.items() for v in nu if u < v}

    # ----------------------------------------------------------------- truss
    def _nbr(self, vset: Set[int]) -> Dict[int, Set[int]]:
        """Neighbour map of the induced subgraph on ``vset``."""
        return {v: self.adj[v] & vset for v in vset}

    def _truss_nbr(
        self, vset: Set[int], k: int, within: Optional[Dict[int, Set[int]]] = None
    ) -> Dict[int, Set[int]]:
        """Neighbour map of the maximal k-truss of the induced subgraph on
        ``vset``: edges with support < k-2 (paper Def. 2 / Lemma 2) peeled
        by :class:`_Peel`, vertices left without edges dropped. With
        ``within``, a neighbour map of a subgraph that holds that k-truss,
        the peel starts from ``within``'s edges instead of this graph's."""
        adj = self.adj if within is None else within
        nbr = {v: adj[v] & vset for v in vset if v in adj}
        _Peel(nbr, k).run()
        return {u: nu for u, nu in nbr.items() if nu}

    def ktruss(
        self, vset: Set[int], k: int
    ) -> Tuple[Set[int], Set[Tuple[int, int]]]:
        """Maximal k-truss of the induced subgraph on ``vset``.

        Returns (vertices, canonical edges).
        """
        nbr = self._truss_nbr(vset, k)
        return set(nbr), {(u, v) for u, nu in nbr.items() for v in nu if u < v}

    def keyword_truss(self, query: Iterable[str], k: int) -> KeywordTruss:
        """T_k(G_Q): the maximal k-truss of the subgraph induced by the
        vertices holding a query keyword, with its connected components.

        The peel starts from T_k(G), the full graph's maximal k-truss,
        restricted to V_Q. T_k(G_Q) is a k-truss subgraph of G, so it lies
        in T_k(G); hence T_k(G_Q) = T_k(T_k(G)[V_Q]), and the edges of G_Q
        outside T_k(G) are never counted. T_k(G) is peeled on the first
        call at k and kept in ``_trusses``.

        Every seed community of (``query``, k) is a k-truss inside G_Q, so
        its edges all lie in T_k(G_Q); it has radius ≤ r over its own edges,
        so the depth-r BFS over T_k(G_Q) reaches all of it. Hence
        :meth:`seed_community` given the record returns what it returns
        without it, and None at every vertex T_k(G_Q) lacks. Attributed
        truss community search peels the query's subgraph the same way
        (Huang & Lakshmanan, VLDB 2017). Given the record,
        :meth:`seed_community` skips the keyword test, and returns a
        component without peeling when its candidate BFS covers one.
        """
        nbr = self._truss_nbr(self.holding(query), k, self.truss(k))
        components: Dict[int, FrozenSet[int]] = {}
        for v in nbr:
            if v not in components:
                comp, stack = {v}, [v]
                while stack:
                    for w in nbr[stack.pop()]:
                        if w not in comp:
                            comp.add(w)
                            stack.append(w)
                whole = frozenset(comp)
                components.update(dict.fromkeys(whole, whole))
        return KeywordTruss(frozenset(query), k, nbr, components)

    def truss(self, k: int) -> Dict[int, Set[int]]:
        """Neighbour map of T_k(G), the full graph's maximal k-truss, peeled
        on the first call at k and kept in ``_trusses``."""
        nbr = self._trusses.get(k)
        if nbr is None:
            nbr = self._trusses[k] = self._truss_nbr(set(self.adj), k)
        return nbr

    def truss_ball(self, center: int, k: int, r: int) -> FrozenSet[int]:
        """B_r(center): the vertices within r hops of ``center``, a vertex
        of T_k(G), over the edges of T_k(G).

        Every seed community g at the center for any Q at this k is a
        connected k-truss subgraph of G, so its edges lie in T_k(G), and it
        has radius ≤ r over its own edges, so g ⊆ B_r(center).
        """
        return frozenset(_ball(self.truss(k), center, r))

    # ----------------------------------------------------------------- k-core
    def kcore(self, vset: Set[int], k: int) -> Set[int]:
        """Maximal k-core of the induced subgraph on ``vset`` (case study)."""
        nbr = self._nbr(vset)
        _cut_core(nbr, k)
        return set(nbr)

    # --------------------------------------------------------- seed community
    def seed_community(
        self,
        center: int,
        r: int,
        k: int,
        query: Set[str],
        truss: Optional[KeywordTruss] = None,
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

        Given ``truss``, :meth:`keyword_truss` at this (``query``, k), the
        BFS runs over its edges, and every vertex there holds a query
        keyword, so the keyword test is skipped. A candidate set that covers
        the center's whole component is returned as that component, with no
        peel. The component of a k-truss is a k-truss, the BFS reached all
        of it within depth r over its own edges, and every seed community at
        the center is connected inside T_k(G_Q), so it is the maximal one.
        Otherwise only the edges between two vertices of its ring (depth
        exactly r) need a triangle count. Any other edge has an endpoint u
        at depth < r, so its common neighbours in T_k(G_Q), all adjacent to
        u, lie within depth r and it keeps the support ≥ k-2 it has in
        T_k(G_Q). If every ring edge keeps k-2 common neighbours inside the
        candidate set, the set is a k-truss within radius r that holds every
        seed community at the center, and it is returned with no peel. If a
        ring edge falls short, and always without ``truss`` (the full graph
        is no k-truss), the peel decides. A ``truss`` of another (Q, k)
        raises ValueError: its edges need not hold the communities asked
        for.
        """
        held = truss is not None
        if held and (truss.k != k or truss.query != query):
            raise ValueError(
                f"keyword truss of ({sorted(truss.query)}, {truss.k}) "
                f"asked at ({sorted(query)}, {k})"
            )
        kw, adj = self.keywords, truss.adj if held else self.adj
        if center not in adj or (
            not held and kw.get(center, _NO_KEYWORDS).isdisjoint(query)
        ):
            return None
        cand = {center}
        frontier = [center]
        for _ in range(r):
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in cand and (
                        held or not kw.get(v, _NO_KEYWORDS).isdisjoint(query)
                    ):
                        cand.add(v)
                        nxt.append(v)
            frontier = nxt
        if held:
            whole = truss.components[center]
            if len(cand) == len(whole):
                return whole
            if r > 0:
                ring = set(frontier)
                if all(
                    len(adj[u] & adj[v] & cand) >= k - 2
                    for u in frontier
                    for v in adj[u] & ring
                    if u < v
                ):
                    return frozenset(cand)
        nbr = {v: adj[v] & cand for v in cand}
        peel = _Peel(nbr, k, center)
        if not peel.run():
            return None
        while True:
            reached = _ball(nbr, center, r)
            if len(reached) == len(nbr):
                return frozenset(reached)
            if not peel.drop([v for v in nbr if v not in reached]):
                return None

    # -------------------------------------------------------------- influence
    def influence(self, seed: Iterable[int], theta: float) -> Dict[int, float]:
        """``cpp(g, v)`` for every v in the influenced community ``g^Inf``.

        Under MIA, ``cpp(g, v) = max_{u∈g} upp(u, v)``, so this merges the
        seeds' maximum influence out-arborescences MIOA(u, θ) (Chen, Wang &
        Wang, KDD 2010), each built once by :meth:`_arborescence` and kept
        in ``_arbo``. Seeds keep cpp = 1. Each seed's tree is walked in
        preorder; an entry below ``theta``, or no better than what ``best``
        already holds, is skipped together with its subtree. The result
        equals the multi-source max-product Dijkstra fixpoint:

        1. The max over sources of single-source path products is the
           multi-source fixpoint.
        2. Weights are < 1, so p strictly decreases down a tree. Hence the
           tree built at θ′ ≤ θ, cut at p ≥ θ, is the θ-tree, and an entry
           below θ has its whole subtree below θ.
        3. If ``best[v] ≥ p_u(v)``, the source (or seed) that set ``best[v]``
           reaches every descendant d at least as well:
           ``p_u(d) = p_u(v)·π(v→d) ≤ best[v]·π(v→d)``. So skipping u's
           subtree below v loses nothing.

        A fresh dict is returned on every call.
        """
        best: Dict[int, float] = dict.fromkeys(seed, 1.0)
        get, memo = best.get, self._arbo
        for u in list(best):
            built = memo.get(u)
            if built is None or built[0] > theta:
                built = memo[u] = (theta, self._arborescence(u, theta))
            tree = built[1]
            i, n = 0, len(tree)
            while i < n:
                p, v, end = tree[i]
                if p > get(v, 0.0) and p >= theta:
                    best[v] = p
                    i += 1
                else:
                    i = end
        return best

    def _arborescence(self, src: int, theta: float) -> List[Tuple[float, int, int]]:
        """MIOA(src, θ) as ``(p, v, end)`` in preorder, the root left out.

        Max-product Dijkstra from ``src``: relaxation along directed edges
        multiplies by ``p_uv``, and states below ``theta`` are pruned — exact,
        because with weights < 1 every prefix of a maximum influence path
        with endpoint ≥ θ also scores ≥ θ. ``p = upp(src, v)``, and
        ``tree[i:end]`` is v's subtree. The preorder is built iteratively,
        as a tree can be as deep as the graph is long.
        """
        out, pop, push = self.out, heapq.heappop, heapq.heappush
        best = {src: 1.0}
        get = best.get
        parent: Dict[int, int] = {}
        heap = [(-1.0, src)]
        while heap:
            negp, u = pop(heap)
            p = -negp
            if p < best[u] - EPS:
                continue  # stale entry
            for v, w in out.get(u, ()):
                q = p * w
                if q >= theta and q > get(v, 0.0) + EPS:
                    best[v] = q
                    parent[v] = u
                    push(heap, (-q, v))
        kids: Dict[int, List[int]] = {}
        for v, u in parent.items():
            kids.setdefault(u, []).append(v)
        order: List[int] = []
        stack = kids.get(src, [])
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(kids.get(v, ()))
        size = dict.fromkeys(order, 1)
        for v in reversed(order):
            u = parent[v]
            if u != src:
                size[u] += size[v]
        return [(best[v], v, i + size[v]) for i, v in enumerate(order)]

    def sigma(self, seed: Iterable[int], theta: float) -> float:
        """Influential score σ(g) = Σ_{v∈g^Inf} cpp(g, v) (paper Eq. 5).

        Summed by ``math.fsum``, which rounds correctly, so σ does not depend
        on the order :meth:`influence` returns its entries in, and hence not
        on the iteration order of ``seed``."""
        return math.fsum(self.influence(seed, theta).values())

    def positions(self) -> Dict[int, int]:
        """vertex -> its position 0..n-1, built on the first call."""
        at = self._positions
        if not at:
            self._order.extend(self.adj)
            at.update(zip(self._order, range(len(self._order))))
        return at

    def influenced(self, g: FrozenSet[int], theta: float) -> Rows:
        """cpp(g, ·) at θ as (positions, values) arrays in :meth:`influence`'s
        order, read from ``cpp_memo``; a miss stores ``influence(g, theta)``."""
        key = (g, theta)
        rows = self.cpp_memo.get(key)
        if rows is None:
            rows = self.cpp_memo[key] = cpp_rows(self.influence(g, theta), self.positions())
        return rows

    def cpp_of(self, rows: Rows) -> Dict[int, float]:
        """The ``{vertex: cpp}`` dict of :meth:`influenced`'s arrays, in
        their order; a fresh dict on every call."""
        pos, val = rows
        return dict(zip(map(self._order.__getitem__, pos.tolist()), val.tolist()))


def _ball(nbr: Dict[int, Set[int]], center: int, r: int) -> Set[int]:
    """The vertices within r hops of ``center`` over the neighbour map
    ``nbr``."""
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
    return reached


def _cut_core(nbr: Dict[int, Set[int]], k: int) -> None:
    """Cut from the neighbour map ``nbr``, in place, every vertex of degree
    < k with its edges, cascading: what is left is the maximal k-core."""
    low = k - 1
    queue = [v for v, nv in nbr.items() if len(nv) <= low]
    while queue:
        u = queue.pop()
        for v in nbr.pop(u):
            nv = nbr[v]
            nv.discard(u)
            if len(nv) == low:
                queue.append(v)


class _Peel:
    """Queue-based k-truss peel over a neighbour map, edited in place.

    The peel first cuts the maximal (k-1)-core (:func:`_cut_core`): a
    vertex with an edge (u, v) in a k-truss has v and the edge's k-2 common
    neighbours there, so at least k-1 neighbours, and a vertex of degree
    ≤ k-2 is removed outright, cascading, before any support is counted. If
    the cut removes the center, nothing is counted and :meth:`run` returns
    False.

    Support (triangles per edge) is then counted once on what is left.
    Removing an edge (u, v) decrements the other two edges of every
    triangle (u, v, w) and queues an edge whose support falls below k-2 —
    the standard truss decomposition (Cohen 2008; Wang & Cheng, VLDB 2012).
    :meth:`drop` removes vertices outright (the radius cut in
    :meth:`LocalGraph.seed_community`) and resumes the peel on the same
    counts.
    """

    def __init__(
        self, nbr: Dict[int, Set[int]], k: int, center: Optional[int] = None
    ) -> None:
        self.nbr = nbr
        self.need = max(k - 2, 0)
        self.center = center
        self.sup: Dict[Tuple[int, int], int] = {}
        self.queue: List[Tuple[int, int]] = []
        _cut_core(nbr, self.need + 1)
        if center is not None and center not in nbr:
            return
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
        return center is None or bool(nbr.get(center))

    def drop(self, vertices: List[int]) -> bool:
        """Remove ``vertices`` with their edges and resume the peel."""
        for x in vertices:
            for y in self.nbr[x]:
                self.queue.append((x, y) if x < y else (y, x))
        ok = self.run()
        for x in vertices:
            del self.nbr[x]
        return ok
