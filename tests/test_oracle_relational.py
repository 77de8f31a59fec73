"""DuckDB-oracle checks for the relational graph computations.

Every query-shaped result (degrees, supports, truss inputs, propagation
aggregates) is validated row-for-row against plain SQL over the same input
tables, per the repo's correctness policy.
"""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.triangles import edge_support, symmetric_adjacency
from repro.oracle import assert_equivalent


def test_degree_distribution(spark, spark_graph, und_pdf):
    adj = symmetric_adjacency(spark_graph.undirected_edges())
    got = adj.groupBy(F.col("a").alias("id")).agg(F.count("*").alias("degree"))
    sql = """
    SELECT id, count(*) AS degree FROM (
        SELECT u AS id FROM und UNION ALL SELECT v AS id FROM und
    ) GROUP BY id
    """
    assert_equivalent(got, sql, und=und_pdf)


def test_directed_edge_counts(spark, spark_graph, spark_graph_pdf):
    _, edges = spark_graph_pdf
    got = spark_graph.edges.groupBy("src").agg(
        F.count("*").alias("out_degree"), F.round(F.sum("weight"), 6).alias("w_sum")
    )
    sql = """
    SELECT src, count(*) AS out_degree, round(sum(weight), 6) AS w_sum
    FROM edges GROUP BY src
    """
    assert_equivalent(got, sql, edges=edges)


def test_support_histogram(spark, spark_graph, und_pdf, adj_pdf):
    sup = edge_support(spark_graph.undirected_edges())
    got = sup.groupBy("support").agg(F.count("*").alias("n_edges"))
    sql = """
    WITH s AS (
        SELECT e.u, e.v,
               (SELECT count(*) FROM adj a1 JOIN adj a2 ON a1.b = a2.b
                WHERE a1.a = e.u AND a2.a = e.v) AS support
        FROM und e
    )
    SELECT support, count(*) AS n_edges FROM s GROUP BY support
    """
    assert_equivalent(got, sql, und=und_pdf, adj=adj_pdf)


def test_weight_bounds_by_vertex(spark, spark_graph, spark_graph_pdf):
    _, edges = spark_graph_pdf
    got = spark_graph.edges.groupBy("dst").agg(
        F.round(F.max("weight"), 6).alias("max_in_w"),
        F.round(F.min("weight"), 6).alias("min_in_w"),
    )
    sql = """
    SELECT dst, round(max(weight), 6) AS max_in_w, round(min(weight), 6) AS min_in_w
    FROM edges GROUP BY dst
    """
    assert_equivalent(got, sql, edges=edges)


def test_undirected_canonicalisation(spark, spark_graph, spark_graph_pdf):
    _, edges = spark_graph_pdf
    got = spark_graph.undirected_edges()
    sql = """
    SELECT DISTINCT least(src, dst) AS u, greatest(src, dst) AS v
    FROM edges WHERE src <> dst
    """
    assert_equivalent(got, sql, edges=edges)


def test_precompute_aggregate_join(spark, prepared_small):
    """The σ_1-per-radius maxima of the collected aggregates match SQL over
    the same table — guards the pandas post-processing in precompute.py."""
    pre = prepared_small.pre
    sdf = spark.createDataFrame(pre.pdf)
    got = sdf.groupBy("r").agg(
        F.round(F.max("sigma_0"), 6).alias("max_sigma"),
        F.count("*").alias("n"),
    )
    sql = "SELECT r, round(max(sigma_0), 6) AS max_sigma, count(*) AS n FROM pre GROUP BY r"
    assert_equivalent(got, sql, pre=pre.pdf)
