"""Tree-index construction invariants (paper Sec. V-B)."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.core.index import IndexNode, build_index


@pytest.fixture(scope="module")
def index(prepared_small):
    return prepared_small.index


def walk(node: IndexNode):
    yield node
    if not node.is_leaf:
        for c in node.children:
            yield from walk(c)


def leaves(node: IndexNode):
    return [n for n in walk(node) if n.is_leaf]


def test_every_vertex_exactly_once(index, prepared_small):
    ids = [e.vertex for leaf in leaves(index) for e in leaf.entries]
    assert sorted(ids) == sorted(prepared_small.local.adj.keys())


def test_size_fields_consistent(index):
    for node in walk(index):
        if node.is_leaf:
            assert node.size == len(node.entries)
        else:
            assert node.size == sum(c.size for c in node.children)


def test_leaf_capacity(index):
    for leaf in leaves(index):
        assert 1 <= len(leaf.entries) <= 16


def test_fanout_bound(index):
    for node in walk(index):
        if not node.is_leaf:
            assert 1 <= len(node.children) <= 16


def test_height_consistent(index, prepared_small):
    import math

    n = len(prepared_small.local.adj)
    assert index.height() <= math.ceil(math.log(max(n, 2), 2)) + 1


def test_aggregates_cover_children(index):
    """Non-leaf aggregates must dominate every child (bit-OR superset,
    max σ) — the soundness condition for Lemmas 5 and 7."""
    for node in walk(index):
        if node.is_leaf:
            continue
        for c in node.children:
            assert node.bv_self & c.bv_self == c.bv_self
            for ri in range(len(node.sigma)):
                for z in range(len(node.sigma[ri])):
                    assert node.sigma[ri][z] >= c.sigma[ri][z] - 1e-12


def test_leaf_aggregates_cover_entries(index):
    for leaf in leaves(index):
        for e in leaf.entries:
            assert leaf.bv_self & e.bv_self == e.bv_self
            for ri in range(len(leaf.sigma)):
                for z in range(len(leaf.sigma[ri])):
                    assert leaf.sigma[ri][z] >= e.sigma[ri][z] - 1e-12


def test_aggregates_equal_entries_below(index):
    """Each node's bounds are exactly the OR / max over the entries below
    it: no looser (wasted prunes), no tighter (unsafe)."""
    for node in walk(index):
        below = [e for leaf in leaves(node) for e in leaf.entries]
        assert node.size == len(below)
        bv_self = 0
        for e in below:
            bv_self |= e.bv_self
        assert node.bv_self == bv_self
        assert node.sigma == [
            [max(e.sigma[ri][z] for e in below) for z in range(len(node.sigma[ri]))]
            for ri in range(len(node.sigma))
        ]


def test_entries_match_precompute_rows(index, prepared_small):
    pre = prepared_small.pre
    by_vertex = {
        e.vertex: e for leaf in leaves(index) for e in leaf.entries
    }
    for (_, row) in pre.pdf.iterrows():
        e = by_vertex[int(row["vertex"])]
        ri = int(row["r"]) - 1
        assert e.sigma[ri] == [float(row[f"sigma_{z}"]) for z in range(len(pre.thetas))]
        if ri == 0:
            assert e.bv_self == int(row["bv_self"])


def _damage(pdf: pd.DataFrame, how: str, r_max: int) -> pd.DataFrame:
    if how == "missing-row":
        return pdf.drop(index=4)
    if how == "radius-repeated":  # the first vertex's r = 1, 1, 3
        return pdf.assign(r=np.where(pdf.index == 1, 1, pdf["r"]))
    if how == "radii-out-of-order":
        return pdf.iloc[[1, 0, *range(2, len(pdf))]]
    # the first vertex's rows moved to the end
    return pd.concat([pdf.iloc[r_max:], pdf.iloc[:r_max]])


@pytest.mark.parametrize(
    "how", ["missing-row", "radius-repeated", "radii-out-of-order", "vertices-out-of-order"]
)
def test_malformed_aggregates_raise(prepared_small, how):
    pre = prepared_small.pre
    with pytest.raises(ValueError):
        build_index(replace(pre, pdf=_damage(pre.pdf, how, pre.r_max)))


def test_small_fanout_deepens_tree(prepared_small):
    wide = build_index(prepared_small.pre, fanout=64)
    deep = build_index(prepared_small.pre, fanout=4)
    assert deep.height() >= wide.height()
    assert deep.size == wide.size


@pytest.mark.parametrize("fanout", [1, 0])
def test_fanout_below_two_raises(prepared_small, fanout):
    """A split into fewer than two parts returns its own slice: the build
    would recurse without end."""
    with pytest.raises(ValueError, match="fanout"):
        build_index(prepared_small.pre, fanout=fanout)


def test_root_sigma_is_global_max(index, prepared_small):
    pre = prepared_small.pre
    for ri, r in enumerate(sorted(pre.pdf["r"].unique())):
        want = float(pre.pdf[pre.pdf["r"] == r]["sigma_0"].max())
        assert index.sigma[ri][0] == pytest.approx(want)
