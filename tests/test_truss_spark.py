"""k-truss and trussness of graphs held in Spark (ATindex's offline input)
vs the local reference."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.baseline import atindex_offline, edge_trussness
from repro.graph import generators as gen
from repro.graph.local import LocalGraph


def spark_pairs(spark, pairs):
    """A SocialGraph in Spark with the given undirected edges."""
    n = max(itertools.chain.from_iterable(pairs)) + 1
    edges = gen.directed_weighted_edges(np.array(pairs))
    return gen.build_social_graph(spark, gen.vertices_pdf([["kw0"]] * n), edges)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_matches_local_reference(spark, spark_graph, local_small, k):
    vt = atindex_offline(spark, spark_graph)
    want, _ = local_small.ktruss(set(local_small.vertices()), k)
    assert {v for v, t in vt.items() if t >= k} == want


def test_k5_clique(spark):
    pairs = list(itertools.combinations(range(5), 2))
    assert atindex_offline(spark, spark_pairs(spark, pairs)) == dict.fromkeys(range(5), 5)


def test_pendant_removed(spark):
    pairs = list(itertools.combinations(range(4), 2)) + [(0, 9)]
    vt = atindex_offline(spark, spark_pairs(spark, pairs))
    assert vt == {0: 4, 1: 4, 2: 4, 3: 4, 9: 2}


def test_k2_identity(spark):
    pairs = [(0, 1), (1, 2)]
    assert atindex_offline(spark, spark_pairs(spark, pairs)) == {0: 2, 1: 2, 2: 2}


def test_trussness_consistent_with_peeling(spark_graph, local_small):
    """Trussness of the edges collected from Spark vs the local k-truss."""
    collected = LocalGraph.from_pandas(
        spark_graph.vertices.toPandas(), spark_graph.edges.toPandas()
    )
    t = edge_trussness(collected)
    for k in (3, 4):
        _, want_es = local_small.ktruss(set(local_small.vertices()), k)
        assert {e for e, te in t.items() if te >= k} == want_es
