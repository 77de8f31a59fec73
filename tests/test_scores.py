"""Reference score algebra over cpp dicts: D(S) (Eq. 6), the pointwise max
and the marginal gain ΔD_g(S). ``repro.core.diversify`` computes them on
arrays, and its tests compare against these."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def diversity_score(cpp_maps) -> float:
    """Reference D(S) = Σ_v max_{g∈S} cpp(g, v) (Eq. 6) over dicts."""
    merged: dict = {}
    for m in cpp_maps:
        merge_max(merged, m)
    return float(sum(merged.values()))


def merge_max(acc: dict, cpp: dict) -> dict:
    """Reference pointwise max over dicts: ``acc`` := max(acc, cpp) in
    place; returns ``acc``."""
    for v, p in cpp.items():
        if p > acc.get(v, 0.0):
            acc[v] = p
    return acc


def marginal_gain(acc: dict, cpp: dict) -> float:
    """Reference ΔD_g(S) = D(S ∪ {g}) − D(S) over dicts, given ``acc`` =
    pointwise max over S: the improvements, added in ``cpp``'s order. The
    array kernel of ``repro.core.diversify`` must return this very float."""
    gain = 0.0
    for v, p in cpp.items():
        cur = acc.get(v, 0.0)
        if p > cur:
            gain += p - cur
    return gain


cpp_maps = st.dictionaries(
    st.integers(min_value=0, max_value=30),
    st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
    max_size=12,
)


def test_diversity_single_is_sigma():
    m = {1: 0.4, 2: 0.9}
    assert diversity_score([m]) == pytest.approx(sum(m.values()))
    assert diversity_score([]) == 0.0


def test_diversity_disjoint_adds():
    a, b = {1: 0.5}, {2: 0.7}
    assert diversity_score([a, b]) == pytest.approx(1.2)


def test_diversity_overlap_takes_max():
    a, b = {1: 0.5, 2: 0.3}, {1: 0.8}
    assert diversity_score([a, b]) == pytest.approx(0.8 + 0.3)


def test_merge_max_in_place():
    acc = {1: 0.5}
    out = merge_max(acc, {1: 0.9, 2: 0.2})
    assert out is acc and acc == {1: 0.9, 2: 0.2}


def test_marginal_gain_matches_definition():
    acc = {1: 0.5, 2: 0.3}
    g = {1: 0.8, 3: 0.4}
    want = diversity_score([acc, g]) - diversity_score([acc])
    assert marginal_gain(acc, g) == pytest.approx(want)


@settings(max_examples=60, deadline=None)
@given(st.lists(cpp_maps, min_size=1, max_size=5), cpp_maps)
def test_property_monotonicity(maps, extra):
    """D(S) ≤ D(S ∪ {g}) (paper Sec. VII monotonicity)."""
    assert diversity_score(maps) <= diversity_score(maps + [extra]) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(cpp_maps, min_size=2, max_size=5), cpp_maps)
def test_property_submodularity(maps, g):
    """ΔD_g(S') ≥ ΔD_g(S) for S' ⊆ S (paper Sec. VII submodularity)."""
    s_small = maps[: len(maps) // 2]
    s_big = maps
    acc_small: dict = {}
    acc_big: dict = {}
    for m in s_small:
        merge_max(acc_small, m)
    for m in s_big:
        merge_max(acc_big, m)
    assert marginal_gain(acc_small, g) >= marginal_gain(acc_big, g) - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(cpp_maps, min_size=1, max_size=6))
def test_property_merge_equals_diversity(maps):
    acc: dict = {}
    for m in maps:
        merge_max(acc, m)
    assert sum(acc.values()) == pytest.approx(diversity_score(maps))
