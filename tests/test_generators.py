"""Unit tests for the synthetic social-network generators."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.keywords import bv_of
from repro.graph import generators as gen


class TestNWS:
    def test_ring_edges_present(self):
        e = gen.nws_undirected_edges(50, m=6, mu=0.0, seed=0)
        s = {tuple(x) for x in e}
        for i in range(50):
            for d in (1, 2, 3):
                u, v = i, (i + d) % 50
                assert (min(u, v), max(u, v)) in s

    def test_no_shortcut_edge_count(self):
        e = gen.nws_undirected_edges(50, m=6, mu=0.0, seed=0)
        assert len(e) == 50 * 3  # exactly the ring

    def test_shortcuts_increase_edges(self):
        e0 = gen.nws_undirected_edges(200, mu=0.0, seed=1)
        e1 = gen.nws_undirected_edges(200, mu=0.5, seed=1)
        assert len(e1) > len(e0)

    def test_shortcut_rate_close_to_mu(self):
        n = 5000
        e = gen.nws_undirected_edges(n, mu=0.167, seed=2)
        extra = len(e) - 3 * n
        # each of the 3n ring edges spawns a shortcut w.p. mu (minus dedup)
        assert 0.5 * 0.167 * 3 * n < extra < 1.5 * 0.167 * 3 * n

    def test_canonical_unique(self):
        e = gen.nws_undirected_edges(100, seed=3)
        assert (e[:, 0] < e[:, 1]).all()
        assert len(np.unique(e, axis=0)) == len(e)

    def test_deterministic(self):
        a = gen.nws_undirected_edges(80, seed=7)
        b = gen.nws_undirected_edges(80, seed=7)
        assert (a == b).all()

    def test_seed_changes_graph(self):
        a = gen.nws_undirected_edges(80, seed=7)
        b = gen.nws_undirected_edges(80, seed=8)
        assert a.shape != b.shape or not (a == b).all()

    def test_rejects_odd_m(self):
        with pytest.raises(ValueError):
            gen.nws_undirected_edges(50, m=5)

    def test_rejects_too_small_n(self):
        with pytest.raises(ValueError):
            gen.nws_undirected_edges(5, m=6)


class TestCliqueAffiliation:
    def test_connected_ring_backbone(self):
        e = gen.clique_affiliation_edges(60, n_cliques=10, seed=0)
        s = {tuple(x) for x in e}
        for i in range(60):
            u, v = i, (i + 1) % 60
            assert (min(u, v), max(u, v)) in s

    def test_contains_triangles(self):
        e = gen.clique_affiliation_edges(100, n_cliques=80, seed=1)
        s = {tuple(map(int, x)) for x in e}
        nbr = {}
        for u, v in s:
            nbr.setdefault(u, set()).add(v)
            nbr.setdefault(v, set()).add(u)
        assert any(len(nbr[u] & nbr[v]) > 0 for u, v in list(s)[:500])

    def test_deterministic(self):
        a = gen.clique_affiliation_edges(80, n_cliques=30, seed=5)
        b = gen.clique_affiliation_edges(80, n_cliques=30, seed=5)
        assert (a == b).all()

    def test_vertex_ids_in_range(self):
        e = gen.clique_affiliation_edges(70, n_cliques=30, seed=2)
        assert e.min() >= 0 and e.max() < 70


class TestKeywords:
    @pytest.mark.parametrize("dist", ["uniform", "gaussian", "zipf"])
    def test_w_distinct_keywords_per_vertex(self, dist):
        kws = gen.assign_keywords(200, sigma=20, w_per_vertex=3, dist=dist, seed=0)
        assert len(kws) == 200
        for row in kws:
            assert len(row) == 3 and len(set(row)) == 3

    def test_w_capped_at_sigma(self):
        kws = gen.assign_keywords(10, sigma=2, w_per_vertex=5, dist="uniform", seed=0)
        assert all(len(r) == 2 for r in kws)

    @pytest.mark.parametrize("dist", ["uniform", "gaussian", "zipf"])
    def test_keywords_from_domain(self, dist):
        kws = gen.assign_keywords(100, sigma=10, w_per_vertex=2, dist=dist, seed=1)
        dom = {f"kw{i}" for i in range(10)}
        assert all(set(r) <= dom for r in kws)

    def test_zipf_skews_to_low_ranks(self):
        kws = gen.assign_keywords(3000, sigma=20, w_per_vertex=1, dist="zipf", seed=2)
        counts = {}
        for r in kws:
            counts[r[0]] = counts.get(r[0], 0) + 1
        assert counts.get("kw0", 0) > counts.get("kw19", 0) * 2

    def test_gaussian_peaks_in_middle(self):
        kws = gen.assign_keywords(3000, sigma=21, w_per_vertex=1, dist="gaussian", seed=3)
        counts = {}
        for r in kws:
            counts[r[0]] = counts.get(r[0], 0) + 1
        assert counts.get("kw10", 0) > counts.get("kw0", 0)
        assert counts.get("kw10", 0) > counts.get("kw20", 0)

    def test_probabilities_sum_to_one(self):
        for dist in ("uniform", "gaussian", "zipf"):
            p = gen.keyword_probabilities(17, dist)
            assert abs(p.sum() - 1.0) < 1e-9
            assert (p > 0).all()

    def test_unknown_distribution_raises(self):
        with pytest.raises(ValueError):
            gen.keyword_probabilities(10, "pareto")


class TestEdgesAndVertices:
    def test_directed_both_orientations(self):
        und = gen.nws_undirected_edges(40, seed=0)
        e = gen.directed_weighted_edges(und, seed=1)
        assert len(e) == 2 * len(und)
        pairs = set(zip(e["src"], e["dst"]))
        for u, v in und:
            assert (u, v) in pairs and (v, u) in pairs

    def test_weights_in_paper_interval(self):
        und = gen.nws_undirected_edges(40, seed=0)
        e = gen.directed_weighted_edges(und, seed=1)
        assert (e["weight"] >= gen.WEIGHT_LOW).all()
        assert (e["weight"] < gen.WEIGHT_HIGH).all()

    def test_orientations_independent_weights(self):
        und = gen.nws_undirected_edges(40, seed=0)
        e = gen.directed_weighted_edges(und, seed=1)
        w = {(s, d): wt for s, d, wt in zip(e["src"], e["dst"], e["weight"])}
        assert any(abs(w[(u, v)] - w[(v, u)]) > 1e-9 for u, v in und)

    def test_vertices_pdf_bv_matches_keywords(self):
        kws = gen.assign_keywords(50, sigma=10, w_per_vertex=2, dist="uniform", seed=0)
        verts = gen.vertices_pdf(kws)
        for i, row in verts.iterrows():
            assert row["bv"] == bv_of(row["keywords"])

    def test_pandas_and_spark_variants_agree(self, spark):
        pv, pe = gen.pandas_social_network(60, seed=4)
        g = gen.social_network(spark, 60, seed=4)
        sv = g.vertices.toPandas().sort_values("id").reset_index(drop=True)
        se = (
            g.edges.toPandas()
            .sort_values(["src", "dst"])
            .reset_index(drop=True)
        )
        pe = pe.sort_values(["src", "dst"]).reset_index(drop=True)
        assert (sv["id"] == pv["id"]).all() and (sv["bv"] == pv["bv"]).all()
        assert (se["src"] == pe["src"]).all() and (se["dst"] == pe["dst"]).all()
        assert np.allclose(se["weight"], pe["weight"])


class TestStandIns:
    def test_dblp_like_builds(self, spark):
        g = gen.dblp_like(spark, 300, seed=1)
        assert g.num_vertices() == 300
        assert g.num_undirected_edges() > 300  # ring + cliques

    def test_amazon_like_builds(self, spark):
        g = gen.amazon_like(spark, 300, seed=1)
        assert g.num_vertices() == 300
        assert g.num_undirected_edges() > 300


class TestBuildSocialGraph:
    """Frames that break the math are refused before Spark sees them: the
    builder is handed no session, so any Spark work would fail otherwise."""

    @staticmethod
    def frames(ids=(0, 1, 2), pairs=((0, 1), (1, 2)), weight=0.5):
        verts = gen.vertices_pdf([["kw0"]] * len(ids)).assign(id=list(ids))
        src, dst = zip(*pairs)
        edges = pd.DataFrame({"src": src, "dst": dst, "weight": weight})
        return verts, edges

    def test_rejects_weight_one(self):
        with pytest.raises(ValueError, match="weight"):
            gen.build_social_graph(None, *self.frames(weight=1.0))

    def test_rejects_duplicate_vertex_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            gen.build_social_graph(None, *self.frames(ids=(0, 1, 1)))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            gen.build_social_graph(None, *self.frames(pairs=((0, 1), (2, 2))))
