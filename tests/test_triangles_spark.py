"""Spark edge support vs the DuckDB oracle and the local reference."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.local import LocalGraph
from repro.graph.triangles import edge_support, symmetric_adjacency
from repro.oracle import assert_equivalent

SUPPORT_SQL = """
SELECT e.u AS u, e.v AS v,
       (SELECT count(*) FROM adj a1 JOIN adj a2 ON a1.b = a2.b
        WHERE a1.a = e.u AND a2.a = e.v) AS support
FROM und e
"""


@pytest.fixture(scope="module")
def support_df(spark, spark_graph):
    return edge_support(spark_graph.undirected_edges()).cache()


def test_support_matches_duckdb(support_df, und_pdf, adj_pdf):
    """Row-level equality against a pure-SQL triangle count in DuckDB."""
    assert_equivalent(support_df, SUPPORT_SQL, und=und_pdf, adj=adj_pdf)


def test_support_matches_local(support_df, local_small):
    got = {(r.u, r.v): r.support for r in support_df.collect()}
    want = local_small.induced_support(set(local_small.vertices()))
    assert got == want


def test_support_covers_every_edge(support_df, und_pdf):
    assert support_df.count() == len(und_pdf)


def test_support_nonnegative(support_df):
    assert support_df.where(F.col("support") < 0).count() == 0


def test_triangle_handshake(support_df):
    """Σ support = 3 · #triangles — the triangle handshake lemma."""
    total = support_df.agg(F.sum("support")).collect()[0][0]
    assert total % 3 == 0


def test_symmetric_adjacency_doubles(spark_graph):
    und = spark_graph.undirected_edges()
    assert symmetric_adjacency(und).count() == 2 * und.count()


def test_known_triangle(spark):
    und = spark.createDataFrame(
        pd.DataFrame({"u": [0, 0, 1, 2], "v": [1, 2, 2, 3]})
    )
    got = {(r.u, r.v): r.support for r in edge_support(und).collect()}
    assert got == {(0, 1): 1, (0, 2): 1, (1, 2): 1, (2, 3): 0}


def test_k4_supports(spark):
    import itertools

    pairs = list(itertools.combinations(range(4), 2))
    und = spark.createDataFrame(pd.DataFrame(pairs, columns=["u", "v"]))
    got = edge_support(und).collect()
    assert all(r.support == 2 for r in got)
