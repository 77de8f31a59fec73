"""Spark multi-source BFS vs the DuckDB recursive-CTE oracle and local BFS."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.bfs import multi_source_hops
from repro.oracle import assert_equivalent

BFS_SQL = """
WITH RECURSIVE reach(v, dist) AS (
    SELECT CAST({src} AS BIGINT), 0
    UNION ALL
    SELECT adj.b, reach.dist + 1
    FROM reach JOIN adj ON adj.a = reach.v
    WHERE reach.dist < {r}
)
SELECT CAST({src} AS BIGINT) AS center, v, CAST(min(dist) AS INT) AS dist
FROM reach GROUP BY v
"""


@pytest.fixture(scope="module")
def hops(spark, spark_graph):
    return multi_source_hops(
        spark, spark_graph.adjacency(), 3, vertices=spark_graph.vertices
    ).cache()


@pytest.mark.parametrize("src", [0, 17, 63])
def test_matches_duckdb_recursive_cte(spark, hops, adj_pdf, src):
    got = hops.where(F.col("center") == src)
    assert_equivalent(got, BFS_SQL.format(src=src, r=3), adj=adj_pdf)


@pytest.mark.parametrize("src", [0, 5, 40, 99])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_matches_local_bfs(hops, local_small, src, r):
    got = {
        r_.v: r_.dist
        for r_ in hops.where((F.col("center") == src) & (F.col("dist") <= r)).collect()
    }
    assert got == local_small.khop(src, r)


def test_every_center_present(hops, local_small):
    n = len(local_small.adj)
    assert hops.select("center").distinct().count() == n


def test_dist_zero_is_self(hops):
    zero = hops.where(F.col("dist") == 0)
    assert zero.where(F.col("center") != F.col("v")).count() == 0


def test_membership_is_minimum_distance(hops, local_small):
    """A vertex discovered at level d really is at shortest distance d."""
    sample = hops.where(F.col("center") == 11).collect()
    want = local_small.khop(11, 3)
    for row in sample:
        assert want[row.v] == row.dist
