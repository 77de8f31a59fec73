"""The hierarchical tree index over pre-computed aggregates (paper Sec. V-B).

Leaf nodes hold per-vertex entries (bit vector, support bound, σ_z bounds per
radius); non-leaf entries hold the OR / max aggregates of their subtree plus a
child pointer. Construction follows the paper: vertices are sorted by the
average of their (normalised) support and score bounds, then recursively
split into ``fanout`` contiguous partitions.

The index is built over the *collected* aggregates (|V|·r_max rows — a few
hundred KB at our scales), matching the paper's in-memory index.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import pandas as pd

from repro.core.precompute import NO_EDGE_SUPPORT, Precomputed

DEFAULT_FANOUT = 16


@dataclass
class VertexEntry:
    """Leaf entry: one vertex's pre-computed data ``v_i.R`` (Alg. 2)."""

    vertex: int
    #: the vertex's own keyword bit vector (center-level Lemma 1)
    bv_self: int
    #: per radius r (index r-1): keyword bit vector of hop(v, r)
    bv: List[int]
    #: per radius r: max edge support over induced edges of hop(v, r)
    ub_sup: List[int]
    #: per radius r, per threshold z: σ_z(hop(v, r))
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
    bv: List[int]
    ub_sup: List[int]
    sigma: List[List[float]]
    size: int
    children: Optional[List["IndexNode"]] = None
    entries: Optional[List[VertexEntry]] = None

    @property
    def is_leaf(self) -> bool:
        return self.entries is not None

    def height(self) -> int:
        return 1 if self.is_leaf else 1 + max(c.height() for c in self.children)


def _aggregate(items: Sequence, r_max: int, m: int) -> dict:
    """OR / max aggregates over leaf entries or child nodes (both carry
    ``bv_self``, ``bv``, ``ub_sup`` and ``sigma``), as ``IndexNode`` fields."""
    bv_self = 0
    bv = [0] * r_max
    sup = [NO_EDGE_SUPPORT] * r_max
    sig = [[0.0] * m for _ in range(r_max)]
    for item in items:
        bv_self |= int(item.bv_self)
        for ri in range(r_max):
            bv[ri] |= int(item.bv[ri])
            sup[ri] = max(sup[ri], int(item.ub_sup[ri]))
            for z in range(m):
                sig[ri][z] = max(sig[ri][z], float(item.sigma[ri][z]))
    return dict(bv_self=bv_self, bv=bv, ub_sup=sup, sigma=sig)


def build_index(precomp: Precomputed, *, fanout: int = DEFAULT_FANOUT) -> IndexNode:
    """Build the tree index from the offline aggregates.

    Sort key: mean of the min-max-normalised ``ub_sup_{r_max}`` and
    ``σ_1(hop(·, r_max))`` (the paper's "average of ub_sup_r and σ_z" made
    unit-free — DESIGN.md §4), so high-bound vertices cluster in the same
    subtrees and the max-heap traversal reaches them first.
    """
    r_max, m = precomp.r_max, len(precomp.thetas)
    pdf = precomp.pdf
    entries: List[VertexEntry] = []
    for vertex, sub in pdf.groupby("vertex", sort=True):
        sub = sub.sort_values("r")
        entries.append(
            VertexEntry(
                vertex=int(vertex),
                bv_self=int(sub["bv_self"].iloc[0]),
                bv=[int(x) for x in sub["bv_r"]],
                ub_sup=[int(x) for x in sub["ub_sup_r"]],
                sigma=[
                    [float(sub.iloc[ri][f"sigma_{z}"]) for z in range(m)]
                    for ri in range(len(sub))
                ],
            )
        )

    sups = np.array([e.ub_sup[r_max - 1] for e in entries], dtype=float)
    sigs = np.array([e.sigma[r_max - 1][0] for e in entries], dtype=float)

    def _norm(x: np.ndarray) -> np.ndarray:
        span = x.max() - x.min()
        return (x - x.min()) / span if span > 0 else np.zeros_like(x)

    order = np.argsort(-(0.5 * _norm(sups) + 0.5 * _norm(sigs)), kind="stable")
    entries = [entries[i] for i in order]

    def _build(chunk: List[VertexEntry]) -> IndexNode:
        if len(chunk) <= fanout:
            return IndexNode(
                **_aggregate(chunk, r_max, m), size=len(chunk), entries=chunk
            )
        splits = np.array_split(np.arange(len(chunk)), fanout)
        children = [
            _build([chunk[i] for i in part]) for part in splits if len(part) > 0
        ]
        return IndexNode(
            **_aggregate(children, r_max, m),
            size=sum(c.size for c in children),
            children=children,
        )

    return _build(entries)
