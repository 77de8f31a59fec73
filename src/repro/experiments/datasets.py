"""Dataset registry for the evaluation (paper Table II + Sec. VIII-A).

``prepare`` builds a graph, runs the offline phase (Alg. 2), builds the tree
index, and snapshots the graph for the online phase — memoised per
configuration so benchmark sweeps pay the offline cost once, exactly as the
paper amortises its offline pre-computation across queries.

Table II's real graphs are replaced by stand-ins (DESIGN.md §4):

=========  ==================  =========================================
paper      here                structure
=========  ==================  =========================================
DBLP       ``dblp_like``       co-authorship cliques (3–7 authors/paper)
Amazon     ``amazon_like``     co-purchase baskets (2–4 items)
Uni/Gau/   ``nws`` +           NWS small-world (m=6, μ=0.167), keyword
Zipf       distribution        distribution Uniform/Gaussian/Zipf
=========  ==================  =========================================
"""
from __future__ import annotations

import hashlib
import os
import pickle
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from pyspark.sql import SparkSession

from repro.core.baseline import atindex_offline
from repro.core.index import IndexNode, build_index
from repro.core.precompute import Precomputed, offline_precompute
from repro.experiments import params as P
from repro.graph.generators import amazon_like, dblp_like, social_network
from repro.graph.local import LocalGraph
from repro.graph.types import SocialGraph

#: stand-in sizes for the two "real" graphs (paper: 317K / 335K vertices).
#: Defaults are the *quick profile* sized for a ~20-minute benchmark
#: session; the full profile (REPRO_FIG2_N=10000 REPRO_STANDIN_N=5000) is
#: where the influential-score pruning has discriminative power — its
#: effectiveness grows with |V| (DESIGN.md §4).
DBLP_LIKE_N = int(os.environ.get("REPRO_STANDIN_N", "2000"))
AMAZON_LIKE_N = int(os.environ.get("REPRO_STANDIN_N", "2000"))
#: Fig. 2/4/6(a) synthetic graph size (paper default: 50K).
FIG2_NWS_N = int(os.environ.get("REPRO_FIG2_N", "2000"))


@dataclass
class Prepared:
    """Everything a query needs: offline artefacts + driver snapshot."""

    key: Tuple
    graph: SocialGraph
    pre: Precomputed
    index: IndexNode
    local: LocalGraph
    vtruss: Optional[Dict[int, int]] = None
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return len(self.local.adj)

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.local.adj.values()) // 2


_CACHE: Dict[Tuple, Prepared] = {}

#: On-disk cache for offline-phase artefacts (the graph's pandas frames and
#: the ``Precomputed`` — Spark frames, the index and the snapshot are rebuilt
#: in seconds on load). Lets a benchmark session reuse the offline work of a
#: previous experiments run; the paper amortises its offline phase across
#: queries the same way.
CACHE_DIR = os.environ.get(
    "REPRO_PREPARED_CACHE",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "..", ".prepared_cache"),
)


#: Part of every on-disk cache key; bump it when a stored artefact changes
#: meaning, so files written by older code are never loaded (2: ATindex
#: trussness is no longer capped at 20; 3: the blob holds the
#: ``Precomputed`` itself, so its θ grid keeps the order of its σ columns).
CACHE_VERSION = 3


def _cache_path(key: Tuple) -> str:
    digest = hashlib.sha1(repr((CACHE_VERSION, key)).encode()).hexdigest()[:16]
    return os.path.join(CACHE_DIR, f"prep_{digest}.pkl")


#: What reading and unpickling a damaged or foreign cache file can raise.
_LOAD_ERRORS = (OSError, EOFError, pickle.UnpicklingError, AttributeError, ImportError, ValueError)


def _disk_load(key: Tuple):
    path = _cache_path(key)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as f:
            blob = pickle.load(f)
        return blob if blob.get("key") == key else None
    except _LOAD_ERRORS as e:
        warnings.warn(f"prepared cache {path} unreadable, rebuilding: {e!r}")
        return None


def _disk_store(key: Tuple, blob: dict) -> None:
    path = _cache_path(key)
    try:
        os.makedirs(CACHE_DIR, exist_ok=True)
        with open(path + ".tmp", "wb") as f:
            pickle.dump({"key": key, **blob}, f)
        os.replace(path + ".tmp", path)
    except (OSError, pickle.PicklingError) as e:
        # caching is best-effort: the experiment goes on without it
        warnings.warn(f"prepared cache {path} not written: {e!r}")


def prepare(
    spark: SparkSession,
    *,
    kind: str = "nws",
    n: Optional[int] = None,
    dist: str = "uniform",
    sigma: int = P.SIGMA_DOMAIN,
    w: int = P.W_PER_VERTEX,
    seed: int = 1,
    with_atindex: bool = False,
    cache: bool = True,
) -> Prepared:
    """Build (or fetch) a fully prepared dataset.

    ``n`` defaults to the Table III default size, and ``r_max`` and the θ
    grid are ``params.R_MAX`` / ``params.THETAS``, all read at call time so
    tests can shrink them globally.
    """
    if n is None:
        n = P.N_VERTICES
    key = (kind, n, dist, sigma, w, seed, P.R_MAX, tuple(P.THETAS))
    prep = _CACHE.get(key) if cache else None
    if prep is None and cache and (blob := _disk_load(key)) is not None:
        # offline artefacts from a previous session: rebuild the cheap parts
        from repro.graph.generators import build_social_graph

        graph = build_social_graph(spark, blob["vertices"], blob["edges"])
        prep = Prepared(
            key=key,
            graph=graph,
            pre=blob["pre"],
            index=build_index(blob["pre"]),
            local=LocalGraph.from_pandas(blob["vertices"], blob["edges"]),
            vtruss=blob.get("vtruss"),
            timings={**blob.get("timings", {}), "from_disk_cache": 1.0},
        )
        _CACHE[key] = prep
    if prep is None:
        timings: Dict[str, float] = {}
        t0 = time.perf_counter()
        if kind == "nws":
            graph = social_network(
                spark, n, dist=dist, sigma=sigma, w_per_vertex=w, seed=seed
            )
        elif kind == "dblp":
            graph = dblp_like(spark, n, sigma=sigma, w_per_vertex=w, seed=seed)
        elif kind == "amazon":
            graph = amazon_like(spark, n, sigma=sigma, w_per_vertex=w, seed=seed)
        else:
            raise ValueError(f"unknown dataset kind {kind!r}")
        timings["generate"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        pre = offline_precompute(spark, graph, r_max=P.R_MAX, thetas=P.THETAS)
        timings["precompute"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        index = build_index(pre)
        timings["index"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        local = LocalGraph.from_pandas(graph.vertices.toPandas(), graph.edges.toPandas())
        timings["snapshot"] = time.perf_counter() - t0
        prep = Prepared(
            key=key, graph=graph, pre=pre, index=index, local=local, timings=timings
        )
        if cache:
            _CACHE[key] = prep
            _save_to_disk(prep)
    if with_atindex and prep.vtruss is None:
        t0 = time.perf_counter()
        prep.vtruss = atindex_offline(spark, prep.graph)
        prep.timings["atindex_offline"] = time.perf_counter() - t0
        if cache:
            _save_to_disk(prep)
    return prep


def _save_to_disk(prep: Prepared) -> None:
    _disk_store(
        prep.key,
        {
            "vertices": prep.graph.vertices.toPandas(),
            "edges": prep.graph.edges.toPandas(),
            "pre": prep.pre,
            "vtruss": prep.vtruss,
            "timings": {k: v for k, v in prep.timings.items()},
        },
    )


def clear_cache() -> None:
    _CACHE.clear()


def figure2_datasets(spark: SparkSession, *, with_atindex: bool = False):
    """The five evaluation graphs of Fig. 2/6(a): Uni, Gau, Zipf, DBLP-like,
    Amazon-like (all at default parameters)."""
    out = {}
    for d in P.DISTRIBUTIONS:
        label = {"uniform": "Uni", "gaussian": "Gau", "zipf": "Zipf"}[d]
        out[label] = prepare(
            spark, kind="nws", n=FIG2_NWS_N, dist=d, with_atindex=with_atindex
        )
    out["DBLP-like"] = prepare(spark, kind="dblp", n=DBLP_LIKE_N, with_atindex=with_atindex)
    out["Amazon-like"] = prepare(
        spark, kind="amazon", n=AMAZON_LIKE_N, with_atindex=with_atindex
    )
    return out


def table2_stats(spark: SparkSession):
    """Table II for the stand-ins: |V|, |E| (the paper's are in DESIGN.md §4)."""
    rows = []
    for label, prep in figure2_datasets(spark).items():
        rows.append(
            {"dataset": label, "num_vertices": prep.n_vertices, "num_edges": prep.n_edges}
        )
    return rows
