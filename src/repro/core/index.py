"""The hierarchical tree index over pre-computed aggregates (paper Sec. V-B).

Leaf nodes hold per-vertex entries (the vertex's own keyword bit vector and
its σ_z bounds per radius); non-leaf entries hold the OR / max aggregates of
their subtree plus a child pointer. These are all that Algorithm 3 reads: the
keyword test (Lemmas 1/5) on ``bv_self`` and the score test (Lemmas 4/7) on
``sigma``. The paper's ``BV_r`` and ``ub_sup_r`` are not kept: a hop's bit
vector holds its center's, so it prunes nothing more, and the support test
runs at the leaves as membership in the query's keyword truss (DESIGN.md
§4). Construction follows the paper: vertices are sorted by the average of
their (normalised) support and score bounds, then recursively split into
``fanout`` contiguous partitions. Every node covers one slice of that sorted
order, so its bounds are one OR / max reduction over the slice.

The index is built over the *collected* aggregates (|V|·r_max rows — a few
hundred KB at our scales), matching the paper's in-memory index.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.precompute import Precomputed

DEFAULT_FANOUT = 16


@dataclass
class VertexEntry:
    """Leaf entry: one vertex's pre-computed data ``v_i.R`` (Alg. 2)."""

    vertex: int
    #: the vertex's own keyword bit vector (center-level Lemma 1)
    bv_self: int
    #: per radius r (index r-1), per threshold z: σ_z(hop(v, r))
    sigma: List[List[float]]

    @property
    def size(self) -> int:
        """Candidate centers covered: a leaf entry is one (cf. ``IndexNode``)."""
        return 1


@dataclass
class IndexNode:
    """Tree node; aggregates are over every vertex below this node."""

    #: OR of the *own* bit vectors below — if it misses Q entirely, no vertex
    #: below can be a seed-community center (center-level Lemma 5)
    bv_self: int
    #: max of the entries' σ_z per radius: r_max is ``len(sigma)``
    sigma: List[List[float]]
    size: int
    children: Optional[List["IndexNode"]] = None
    entries: Optional[List[VertexEntry]] = None

    @property
    def is_leaf(self) -> bool:
        return self.entries is not None

    def height(self) -> int:
        return 1 if self.is_leaf else 1 + max(c.height() for c in self.children)


def build_index(precomp: Precomputed, *, fanout: int = DEFAULT_FANOUT) -> IndexNode:
    """Build the tree index from the offline aggregates.

    ``precomp.pdf`` must be sorted by ``(vertex, r)`` with rows
    ``r = 1..r_max`` for every vertex, and ``fanout`` must be at least 2;
    ValueError otherwise.

    Sort key: mean of the min-max-normalised ``ub_sup_{r_max}`` and
    ``σ_1(hop(·, r_max))`` (the paper's "average of ub_sup_r and σ_z" made
    unit-free — DESIGN.md §4), so high-bound vertices cluster in the same
    subtrees and the max-heap traversal reaches them first.
    """
    if fanout < 2:
        raise ValueError(f"fanout={fanout}: a node must split into at least 2 parts")
    r_max, m = precomp.r_max, len(precomp.thetas)
    pdf = precomp.pdf
    n = len(pdf) // r_max
    vertex = pdf["vertex"].to_numpy()
    radius = pdf["r"].to_numpy()
    if n == 0 or len(pdf) != n * r_max:
        raise ValueError(f"{len(pdf)} aggregate rows are not r_max={r_max} per vertex")
    vertex, radius = vertex.reshape(n, r_max), radius.reshape(n, r_max)
    if (
        (vertex != vertex[:, :1]).any()
        or (radius != np.arange(1, r_max + 1)).any()
        or (np.diff(vertex[:, 0]) <= 0).any()
    ):
        raise ValueError("aggregate rows are not r = 1..r_max per vertex, sorted by vertex")

    bv_self = pdf["bv_self"].to_numpy(np.int64).reshape(n, r_max)[:, 0]
    sup = pdf["ub_sup_r"].to_numpy(np.int64).reshape(n, r_max)[:, -1]
    sigma = pdf[[f"sigma_{z}" for z in range(m)]].to_numpy(float).reshape(n, r_max, m)

    def _norm(x: np.ndarray) -> np.ndarray:
        span = x.max() - x.min()
        return (x - x.min()) / span if span > 0 else np.zeros_like(x)

    key = 0.5 * _norm(sup.astype(float)) + 0.5 * _norm(sigma[:, -1, 0])
    order = np.argsort(-key, kind="stable")
    vertex, bv_self, sigma = vertex[order, 0], bv_self[order], sigma[order]
    entries = [
        VertexEntry(*row) for row in zip(vertex.tolist(), bv_self.tolist(), sigma.tolist())
    ]

    def _build(lo: int, hi: int) -> IndexNode:
        if hi - lo <= fanout:
            children, leaf = None, entries[lo:hi]
        else:
            parts = np.array_split(np.arange(lo, hi), fanout)
            children, leaf = [_build(int(p[0]), int(p[-1]) + 1) for p in parts], None
        return IndexNode(
            bv_self=int(np.bitwise_or.reduce(bv_self[lo:hi])),
            sigma=sigma[lo:hi].max(axis=0).tolist(),
            size=hi - lo,
            children=children,
            entries=leaf,
        )

    return _build(0, n)
