"""Offline pre-computation (Algorithm 2): the aggregates must equal their
definitions and must be *valid upper bounds* for every true seed community."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.core.keywords import bv_of
from repro.core.precompute import NO_EDGE_SUPPORT, offline_precompute, z_index
from repro.experiments import params as P
from repro.graph import generators as gen
from repro.graph.local import LocalGraph


@pytest.fixture(scope="module")
def pre(prepared_small):
    return prepared_small.pre


@pytest.fixture(scope="module")
def local(prepared_small):
    return prepared_small.local


SAMPLE_CENTERS = [0, 7, 33, 71, 119, 140]


def test_shape(pre, local):
    n = len(local.adj)
    assert len(pre.pdf) == n * pre.r_max
    assert set(pre.pdf["r"]) == set(range(1, pre.r_max + 1))


def test_columns(pre):
    for col in ["vertex", "r", "bv_self", "bv_r", "ub_sup_r", "sigma_0", "sigma_1", "sigma_2"]:
        assert col in pre.pdf.columns


def row_of(pre, vertex, r):
    sel = pre.pdf[(pre.pdf["vertex"] == vertex) & (pre.pdf["r"] == r)]
    assert len(sel) == 1
    return sel.iloc[0]


@pytest.mark.parametrize("center", SAMPLE_CENTERS)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_bv_r_is_or_of_hop(pre, local, center, r):
    members = local.khop(center, r)
    want = 0
    for v in members:
        want |= local.bv[v]
    assert int(row_of(pre, center, r)["bv_r"]) == want


@pytest.mark.parametrize("center", SAMPLE_CENTERS)
def test_bv_self_matches_vertex(pre, local, center):
    assert int(row_of(pre, center, 1)["bv_self"]) == local.bv[center]


@pytest.mark.parametrize("center", SAMPLE_CENTERS)
@pytest.mark.parametrize("r", [1, 2, 3])
def test_ub_sup_r_is_max_induced_support(pre, local, center, r):
    members = set(local.khop(center, r))
    sups = [
        s
        for (u, v), s in local.support.items()
        if u in members and v in members
    ]
    want = max(sups) if sups else NO_EDGE_SUPPORT
    assert int(row_of(pre, center, r)["ub_sup_r"]) == want


@pytest.mark.parametrize("center", SAMPLE_CENTERS[:4])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("z", [0, 1, 2])
def test_sigma_z_equals_local_influence_of_hop(pre, local, center, r, z):
    members = set(local.khop(center, r))
    want = local.sigma(members, pre.thetas[z])
    got = float(row_of(pre, center, r)[f"sigma_{z}"])
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_sigma_monotone_in_r(pre):
    for vertex, sub in pre.pdf.groupby("vertex"):
        sub = sub.sort_values("r")
        s = list(sub["sigma_0"])
        assert s == sorted(s), f"σ must grow with r (vertex {vertex})"


def test_sigma_antitone_in_theta(pre):
    for _, row in pre.pdf.iterrows():
        assert row["sigma_0"] >= row["sigma_1"] - 1e-9 >= row["sigma_2"] - 2e-9


def test_sigma_at_least_hop_size_lower_bound(pre, local):
    """σ_z(hop) counts every member at cpp=1, so σ_z ≥ |hop|."""
    for center in SAMPLE_CENTERS:
        members = local.khop(center, 2)
        assert float(row_of(pre, center, 2)["sigma_2"]) >= len(members) - 1e-9


def test_bounds_dominate_true_seed_communities(pre, local):
    """The paper's core soundness claim: for every actual seed community g
    at center v, σ_θ(g) ≤ σ_z(hop(v, r)) whenever θ ≥ θ_z (Lemma 4/7)."""
    query = {"kw0", "kw1", "kw2", "kw3", "kw4"}
    theta = 0.2
    z = z_index(pre.thetas, theta)
    checked = 0
    for center in list(local.adj)[:60]:
        g = local.seed_community(center, 2, 4, query)
        if g is None:
            continue
        sigma_g = local.sigma(g, theta)
        bound = float(row_of(pre, center, 2)[f"sigma_{z}"])
        assert sigma_g <= bound + 1e-9
        checked += 1
    assert checked > 0


def test_support_pdf_matches_local(pre, local):
    got = {
        (int(u), int(v)): int(s)
        for u, v, s in zip(
            pre.support_pdf["u"], pre.support_pdf["v"], pre.support_pdf["support"]
        )
    }
    assert got == local.induced_support(set(local.adj))


@pytest.fixture(scope="module")
def k4_pendant_isolated(spark):
    """K4 on 0..3, a pendant 4 attached to 0, an isolated 5; one keyword each."""
    verts = gen.vertices_pdf([[f"kw{i}"] for i in range(6)])
    pairs = list(itertools.combinations(range(4), 2)) + [(0, 4)]
    edges = gen.directed_weighted_edges(np.array(pairs), seed=3)
    graph = gen.build_social_graph(spark, verts, edges)
    pre = offline_precompute(spark, graph, r_max=P.R_MAX, thetas=P.THETAS)
    return pre, LocalGraph.from_pandas(verts, edges)


def test_hand_built_graph(k4_pendant_isolated):
    pre, local = k4_pendant_isolated
    assert sorted(zip(pre.pdf["vertex"], pre.pdf["r"])) == [
        (v, r) for v in range(6) for r in range(1, pre.r_max + 1)
    ]
    for r in range(1, pre.r_max + 1):
        iso = row_of(pre, 5, r)
        assert int(iso["bv_r"]) == int(iso["bv_self"]) == local.bv[5]
        assert int(iso["ub_sup_r"]) == NO_EDGE_SUPPORT
        assert [float(iso[f"sigma_{z}"]) for z in range(len(pre.thetas))] == [1.0] * 3
        assert int(row_of(pre, 4, r)["ub_sup_r"]) == (0 if r == 1 else 2)
    for _, row in pre.pdf.iterrows():
        members = local.khop(int(row["vertex"]), int(row["r"]))
        want_bv = 0
        for v in members:
            want_bv |= local.bv[v]
        assert int(row["bv_r"]) == want_bv
        for z, theta in enumerate(pre.thetas):
            assert row[f"sigma_{z}"] == pytest.approx(local.sigma(members, theta), rel=1e-9)


class TestZIndex:
    def test_exact_grid_point(self):
        assert z_index((0.1, 0.2, 0.3), 0.2) == 1

    def test_between_grid_points(self):
        assert z_index((0.1, 0.2, 0.3), 0.25) == 1

    def test_above_grid(self):
        assert z_index((0.1, 0.2, 0.3), 0.9) == 2

    def test_below_grid_raises(self):
        with pytest.raises(ValueError):
            z_index((0.1, 0.2, 0.3), 0.05)
