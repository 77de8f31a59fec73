"""Score algebra over cpp maps (driver-side).

The online phase carries each candidate community's influenced set as a dict
``v -> cpp(g, v)`` (produced by ``LocalGraph.influence``). σ(g) (Eq. 5) sums
one map; the diversity score ``D(S)`` (Eq. 6) sums the pointwise max over
several. Algorithm 4's marginal gain runs on arrays in
:mod:`repro.core.diversify`.
"""
from __future__ import annotations

from typing import Dict, Iterable


def sigma_of(cpp: Dict[int, float]) -> float:
    """σ(g) from a cpp map (Eq. 5)."""
    return float(sum(cpp.values()))


def diversity_score(cpp_maps: Iterable[Dict[int, float]]) -> float:
    """D(S) = Σ_v max_{g∈S} cpp(g, v) (Eq. 6)."""
    merged: Dict[int, float] = {}
    for m in cpp_maps:
        for v, p in m.items():
            if p > merged.get(v, 0.0):
                merged[v] = p
    return float(sum(merged.values()))
