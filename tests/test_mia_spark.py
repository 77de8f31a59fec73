"""Spark MIA propagation vs the DuckDB recursive-CTE oracle, the local
Dijkstra reference, and brute-force path enumeration."""
from __future__ import annotations

import random

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph import generators as gen
from repro.graph.local import LocalGraph
from repro.influence.mia import cpp_from_seeds, maxprod_propagate
from repro.oracle import assert_equivalent

# max-product reachability as a recursive CTE: walks with running product
# ≥ θ — weights < 1 bound the depth, and max-over-walks = max-over-paths
# because revisiting only multiplies extra factors < 1.
UPP_SQL = """
WITH RECURSIVE walk(v, p) AS (
    SELECT CAST({src} AS BIGINT), CAST(1.0 AS DOUBLE)
    UNION
    SELECT e.dst, walk.p * e.weight
    FROM walk JOIN edges e ON e.src = walk.v
    WHERE walk.p * e.weight >= {theta}
)
SELECT CAST({src} AS BIGINT) AS src, v, max(p) AS val
FROM walk GROUP BY v
"""


def pairwise(spark, graph, theta):
    """All-pairs ``upp(u, v) ≥ theta``, the diagonal at 1: propagation from
    an ``(id, id, 1.0)`` state at every vertex."""
    init = graph.vertices.select(
        F.col("id").alias("src"), F.col("id").alias("v"), F.lit(1.0).alias("val")
    )
    return maxprod_propagate(spark, graph.edges, init, theta)


@pytest.fixture(scope="module")
def upp(spark, spark_graph):
    return pairwise(spark, spark_graph, 0.1).cache()


@pytest.mark.parametrize("src", [0, 31])
def test_matches_duckdb_recursive_cte(spark, upp, spark_graph_pdf, src):
    _, edges = spark_graph_pdf
    got = upp.where(F.col("src") == src)
    assert_equivalent(got, UPP_SQL.format(src=src, theta=0.1), edges=edges)


@pytest.mark.parametrize("src", [0, 12, 77, 103])
def test_matches_local_dijkstra(upp, local_small, src):
    got = {r.v: r.val for r in upp.where(F.col("src") == src).collect()}
    want = local_small.influence([src], 0.1)
    assert set(got) == set(want)
    for v in want:
        assert got[v] == pytest.approx(want[v], abs=1e-9)


def test_diagonal_is_one(upp, local_small):
    diag = upp.where(F.col("src") == F.col("v"))
    assert diag.count() == len(local_small.adj)
    assert diag.where(F.col("val") != 1.0).count() == 0


def test_all_values_at_least_theta(upp):
    assert upp.where(F.col("val") < 0.1).count() == 0


def test_values_are_valid_path_products(upp):
    """No upp can exceed 1 or the max edge weight for non-self pairs."""
    non_diag = upp.where(F.col("src") != F.col("v"))
    assert non_diag.where(F.col("val") > 0.6).count() == 0


def test_cpp_from_seeds_matches_local(spark, spark_graph, local_small):
    seeds = spark.createDataFrame(
        pd.DataFrame({"gid": [1, 1, 1, 2], "v": [0, 1, 2, 50]})
    )
    got = cpp_from_seeds(spark, spark_graph.edges, seeds, 0.2)
    g1 = {r.v: r.cpp for r in got.where(F.col("gid") == 1).collect()}
    want1 = local_small.influence([0, 1, 2], 0.2)
    assert set(g1) == set(want1)
    for v in want1:
        assert g1[v] == pytest.approx(want1[v], abs=1e-9)
    g2 = {r.v: r.cpp for r in got.where(F.col("gid") == 2).collect()}
    want2 = local_small.influence([50], 0.2)
    assert set(g2) == set(want2)


def test_cpp_from_seeds_matches_local_on_cliques(spark):
    """Large seed sets on a clique-affiliation graph, where most of a seed's
    influence arborescence is dominated by other seeds' and skipped."""
    n = 80
    verts = gen.vertices_pdf(gen.assign_keywords(n, 20, 3, "uniform", seed=31))
    edges = gen.directed_weighted_edges(
        gen.clique_affiliation_edges(n, n_cliques=70, seed=30), seed=32
    )
    local = LocalGraph.from_pandas(verts, edges)
    rng = random.Random(33)
    groups = {gid: rng.sample(range(n), rng.randint(20, 35)) for gid in range(4)}
    seeds = spark.createDataFrame(
        pd.DataFrame(
            [(gid, v) for gid, vs in groups.items() for v in vs], columns=["gid", "v"]
        )
    )
    graph = gen.build_social_graph(spark, verts, edges)
    for theta in (0.1, 0.2):
        got = cpp_from_seeds(spark, graph.edges, seeds, theta).collect()
        for gid, vs in groups.items():
            by_spark = {r.v: r.cpp for r in got if r.gid == gid}
            want = local.influence(vs, theta)
            assert set(by_spark) == set(want)
            for v in want:
                assert by_spark[v] == pytest.approx(want[v], abs=1e-9)
            walked = sum(len(local._arborescence(u, theta)) for u in vs)
            assert walked > 3 * len(want)


def test_sigma_from_cpp_matches_local(spark, spark_graph, local_small):
    """A seed group's σ is the sum of its cpp column."""
    seeds = spark.createDataFrame(pd.DataFrame({"gid": [7] * 3, "v": [10, 11, 12]}))
    cpp = cpp_from_seeds(spark, spark_graph.edges, seeds, 0.2)
    got = cpp.agg(F.sum("cpp").alias("sigma")).collect()[0].sigma
    assert got == pytest.approx(local_small.sigma([10, 11, 12], 0.2), abs=1e-9)


def test_theta_pruning_is_exact(spark, spark_graph, local_small):
    """Propagating at θ=0.3 equals propagating at θ=0.1 then filtering —
    the prefix-monotonicity argument the offline phase relies on."""
    hi = pairwise(spark, spark_graph, 0.3)
    lo = pairwise(spark, spark_graph, 0.1)
    hi_rows = {(r.src, r.v): r.val for r in hi.collect()}
    lo_rows = {
        (r.src, r.v): r.val for r in lo.where(F.col("val") >= 0.3).collect()
    }
    assert hi_rows.keys() == lo_rows.keys()
    for k in hi_rows:
        assert hi_rows[k] == pytest.approx(lo_rows[k], abs=1e-9)


@pytest.fixture(scope="module")
def chain(spark):
    """A 3-chain 0 → 1 → 2 with hand-set weights, seeded at vertex 0."""
    edges = spark.createDataFrame(
        pd.DataFrame({"src": [0, 1], "dst": [1, 2], "weight": [0.6, 0.5]})
    )
    init = spark.createDataFrame(
        pd.DataFrame({"src": [99], "v": [0], "val": [1.0]})
    )
    return edges, init


def test_custom_init_propagation(spark, chain):
    """maxprod_propagate on a 3-chain with hand-set weights."""
    got = {r.v: r.val for r in maxprod_propagate(spark, *chain, 0.1).collect()}
    assert got == {0: 1.0, 1: pytest.approx(0.6), 2: pytest.approx(0.3)}


def test_propagation_must_converge(spark, chain):
    """The chain needs a third round to see that nothing improves; a state
    cut off before that is refused, not returned."""
    with pytest.raises(RuntimeError, match="not converged after 2 rounds"):
        maxprod_propagate(spark, *chain, 0.1, max_iters=2)
    got = {r.v: r.val for r in maxprod_propagate(spark, *chain, 0.1, max_iters=3).collect()}
    assert got == {0: 1.0, 1: pytest.approx(0.6), 2: pytest.approx(0.3)}
