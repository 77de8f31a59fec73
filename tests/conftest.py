"""Shared fixtures for the test suite.

Spark-backed fixtures are session-scoped and deliberately tiny (~100–200
vertices): every Spark algorithm here is iterative, so test cost is
dominated by job-scheduling overhead, not data size. Pure-Python fixtures
(LocalGraph over pandas frames) carry the bulk of the property testing.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.graph import generators as gen
from repro.graph import local as local_module
from repro.graph.local import LocalGraph, _Peel


@pytest.fixture(scope="session", autouse=True)
def _isolate_prepared_cache(tmp_path_factory):
    """Point the experiments' on-disk artefact cache at a session tmpdir.

    Tests must exercise the real offline pipeline every session — a
    persistent cache would mask regressions in precompute/indexing.
    """
    from repro.experiments import datasets as D

    D.CACHE_DIR = str(tmp_path_factory.mktemp("prepared_cache"))
    yield


def _local_graph(n: int, seed: int, **kw) -> LocalGraph:
    verts, edges = gen.pandas_social_network(n, seed=seed, **kw)
    return LocalGraph.from_pandas(verts, edges)


@pytest.fixture(scope="session")
def local_small() -> LocalGraph:
    """120-vertex NWS graph, driver-only (no Spark)."""
    return _local_graph(120, seed=5)


@pytest.fixture(scope="session")
def local_medium() -> LocalGraph:
    """400-vertex NWS graph, driver-only — used by search-algorithm tests."""
    return _local_graph(400, seed=9)


@pytest.fixture
def builds(monkeypatch):
    """Sources whose influence arborescence ``LocalGraph`` builds during the
    test, in call order."""
    built = []
    build = LocalGraph._arborescence

    def counting(self, src, theta):
        built.append(src)
        return build(self, src, theta)

    monkeypatch.setattr(LocalGraph, "_arborescence", counting)
    return built


@pytest.fixture
def peels(monkeypatch):
    """Centers of the ball peels (``_Peel``) built during the test, in call
    order."""
    started = []
    init = _Peel.__init__

    def counting(self, nbr, k, center):
        started.append(center)
        init(self, nbr, k, center)

    monkeypatch.setattr(_Peel, "__init__", counting)
    return started


@pytest.fixture
def batch_peels(monkeypatch):
    """The k of every batch peel (``_batch_peel``: ``truss``, ``ktruss`` and
    ``keyword_truss``) run during the test, in call order."""
    ks = []
    peel = local_module._batch_peel

    def counting(triangles, alive, k):
        ks.append(k)
        return peel(triangles, alive, k)

    monkeypatch.setattr(local_module, "_batch_peel", counting)
    return ks


@pytest.fixture(scope="session")
def tiny_frames():
    """A hand-checkable 30-vertex graph as (vertices, edges) pandas frames."""
    return gen.pandas_social_network(30, seed=3)


@pytest.fixture(scope="session")
def spark_graph(spark):
    """120-vertex SocialGraph in Spark (same rows as ``local_small``)."""
    verts, edges = gen.pandas_social_network(120, seed=5)
    return gen.build_social_graph(spark, verts, edges)


@pytest.fixture(scope="session")
def spark_graph_pdf():
    """The pandas twins of ``spark_graph`` for DuckDB oracle queries."""
    return gen.pandas_social_network(120, seed=5)


@pytest.fixture(scope="session")
def prepared_small(spark):
    """Fully prepared 150-vertex dataset (offline phase + index + snapshot).

    Built once per session; shared by precompute/index/topl/distributed/
    diversify integration tests.
    """
    from repro.experiments.datasets import prepare

    return prepare(spark, kind="nws", n=150, dist="uniform", seed=2)


@pytest.fixture(scope="session")
def und_pdf(spark_graph_pdf) -> pd.DataFrame:
    """Canonical undirected edges (u < v) of the shared 120-vertex graph."""
    _, edges = spark_graph_pdf
    und = edges[["src", "dst"]].copy()
    und["u"] = und[["src", "dst"]].min(axis=1)
    und["v"] = und[["src", "dst"]].max(axis=1)
    return und[["u", "v"]].drop_duplicates().reset_index(drop=True)


@pytest.fixture(scope="session")
def adj_pdf(und_pdf) -> pd.DataFrame:
    """Symmetric adjacency of the shared graph (both orientations)."""
    fwd = und_pdf.rename(columns={"u": "a", "v": "b"})
    rev = und_pdf.rename(columns={"u": "b", "v": "a"})[["a", "b"]]
    return pd.concat([fwd, rev], ignore_index=True)
