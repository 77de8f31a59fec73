"""Which calls into repro the traced run wraps, and the per-layer metrics.

Layers are named after repro's modules. Spark layers get a job group each,
so ``<layer>.spark_jobs`` counts the jobs launched while that layer was the
innermost traced call. ``edge_support`` returns a lazy frame whose work
would otherwise run inside its first consumer; the traced run materialises
it inside its own span. Row counts are taken after a span has closed, in
job group ``trace``, so they are charged to no layer.
"""
from __future__ import annotations

from typing import Dict

from repro.core import baseline, diversify, precompute, topl, topl_distributed
from repro.core.diversify import DiversifyStats
from repro.core.pruning import PruningStats
from repro.experiments import datasets
from repro.graph import bfs
from repro.graph.local import LocalGraph
from repro.influence import mia
from repro.sparkutil import materialize

from spans import Tracer

#: root spans: the build, the system's method, and the ATindex reference
BUILD_ROOTS = ("bench.build",)
SYSTEM_ROOTS = ("core.topl.topl_icde", "core.diversify.dtopl_icde")
BASELINE_ROOTS = ("core.baseline.atindex_query",)

PRUNING_FIELDS = {
    "keyword": "core.pruning.keyword_pruned",
    "support": "core.pruning.support_pruned",
    "score": "core.pruning.score_pruned",
    "heap_terminated": "core.pruning.heap_stop_pruned",
    "refined": "core.pruning.refined",
    "visited_nodes": "core.index.visited_nodes",
}

#: every per-layer metric with its unit, in report order
PER_LAYER: Dict[str, str] = {
    "graph.generators.generate_s": "s",
    "graph.triangles.edge_support_s": "s",
    "graph.triangles.support_rows": "count",
    "graph.triangles.spark_jobs": "count",
    "graph.bfs.multi_source_hops_s": "s",
    "graph.bfs.rounds": "count",
    "graph.bfs.membership_rows": "count",
    "graph.bfs.spark_jobs": "count",
    "influence.mia.propagate_s": "s",
    "influence.mia.propagate_r1_s": "s",
    "influence.mia.propagate_r2_s": "s",
    "influence.mia.propagate_r3_s": "s",
    "influence.mia.rounds": "count",
    "influence.mia.materializations": "count",
    "influence.mia.state_rows": "count",
    "influence.mia.spark_jobs": "count",
    "core.precompute.self_s": "s",
    "core.precompute.spark_jobs": "count",
    "core.index.build_index_s": "s",
    "core.index.nodes": "count",
    "core.index.height": "count",
    "graph.local.snapshot_s": "s",
    "graph.truss.edge_trussness_s": "s",
    "graph.truss.spark_jobs": "count",
    "trace.ops": "count",
    "core.topl.traverse_self_s": "s",
    "core.index.visited_nodes": "count",
    "core.pruning.keyword_pruned": "count",
    "core.pruning.support_pruned": "count",
    "core.pruning.score_pruned": "count",
    "core.pruning.heap_stop_pruned": "count",
    "core.pruning.refined": "count",
    "core.pruning.refine_yield": "frac",
    "graph.local.seed_community_s": "s",
    "graph.local.seed_community_calls": "count",
    "graph.local.seed_community_null_frac": "frac",
    "graph.local.ktruss_calls": "count",
    "graph.local.induced_support_calls": "count",
    "graph.local.influence_s": "s",
    "graph.local.influence_calls": "count",
    "graph.local.influence_settled": "count",
    "core.baseline.atindex_query_s": "s",
    "core.baseline.atindex_refined": "count",
    "core.diversify.greedy_wp_s": "s",
    "core.diversify.gain_evaluations": "count",
    "core.diversify.pruned_evaluations": "count",
    "core.topl_distributed.query_s": "s",
    "spark.jvm_peak_rss_mb": "MB",
    "trace.overhead_frac": "frac",
}


def _count_rows(tracer: Tracer, name: str, df) -> None:
    with tracer.span("trace.count_rows", group="trace"):
        rows = df.count()
    tracer.count(name, rows)


def _rounds(tracer: Tracer, counter: str, name: str):
    """``around`` hook: one loop round costs two materialisations, plus the
    seed state (see ``multi_source_hops`` / ``maxprod_propagate``)."""

    def around(original, args, kwargs):
        key = f"{tracer.root()}|{counter}"
        before = tracer.counters[key]
        result = original(*args, **kwargs)
        tracer.count(name, int(tracer.counters[key] - before) // 2)
        return result

    return around


def install(tracer: Tracer) -> None:
    """Register the wrappers; :meth:`Tracer.active` applies them."""
    t = tracer
    # ---- offline build (prepare → Algorithm 2 → index → snapshot)
    t.wrap(datasets, "social_network", "graph.generators.social_network", group="graph.generators")
    t.wrap(
        precompute, "edge_support", "graph.triangles.edge_support", group="graph.triangles",
        around=lambda f, a, k: materialize(f(*a, **k)),
        after=lambda s, df, a, k: _count_rows(t, "graph.triangles.support_rows", df),
    )
    t.counter(bfs, "materialize", "graph.bfs.materializations")
    t.wrap(
        precompute, "multi_source_hops", "graph.bfs.multi_source_hops", group="graph.bfs",
        around=_rounds(t, "graph.bfs.materializations", "graph.bfs.rounds"),
        after=lambda s, df, a, k: _count_rows(t, "graph.bfs.membership_rows", df),
    )
    t.counter(mia, "materialize", "influence.mia.materializations")
    t.wrap(
        precompute, "cpp_from_seeds", "influence.mia.cpp_from_seeds", group="influence.mia",
        around=_rounds(t, "influence.mia.materializations", "influence.mia.rounds"),
        after=lambda s, df, a, k: _count_rows(t, "influence.mia.state_rows", df),
    )
    t.wrap(datasets, "offline_precompute", "core.precompute.offline_precompute", group="core.precompute")

    def index_shape(span, root, args, kwargs):
        nodes, stack = 0, [root]
        while stack:
            node = stack.pop()
            nodes += 1
            stack.extend(node.children or ())
        t.count("core.index.nodes", nodes)
        t.count("core.index.height", root.height())

    t.wrap(datasets, "build_index", "core.index.build_index", after=index_shape)
    t.wrap(LocalGraph, "from_pandas", "graph.local.from_pandas")
    t.wrap(baseline, "edge_trussness", "graph.truss.edge_trussness", group="graph.truss")

    # ---- online: traversal, refinement, baseline, diversification
    def topl_around(original, args, kwargs):
        if kwargs.get("stats") is not None:
            return original(*args, **kwargs)
        stats = PruningStats()
        result = original(*args, stats=stats, **kwargs)
        for attr, name in PRUNING_FIELDS.items():
            t.count(name, getattr(stats, attr))
        return result

    t.wrap(topl, "topl_icde", "core.topl.topl_icde", around=topl_around)
    t.wrap(diversify, "topl_icde", "core.topl.topl_icde", around=topl_around)
    t.wrap(diversify, "dtopl_icde", "core.diversify.dtopl_icde")

    def greedy_around(original, args, kwargs):
        candidates, L = args[:2]
        stats = DiversifyStats()
        result = original(candidates, L, stats)
        t.count("core.diversify.gain_evaluations", stats.gain_evaluations)
        t.count("core.diversify.pruned_evaluations", stats.pruned_evaluations)
        return result

    t.wrap(diversify, "greedy_wp", "core.diversify.greedy_wp", around=greedy_around)
    t.wrap(
        LocalGraph, "seed_community", "graph.local.seed_community",
        after=lambda s, g, a, k: t.count("graph.local.seed_community_null", g is None),
    )
    t.counter(LocalGraph, "ktruss", "graph.local.ktruss_calls")
    t.counter(LocalGraph, "induced_support", "graph.local.induced_support_calls")
    t.wrap(
        LocalGraph, "influence", "graph.local.influence",
        after=lambda s, cpp, a, k: t.count("graph.local.influence_settled", len(cpp)),
    )
    t.wrap(baseline, "atindex_query", "core.baseline.atindex_query")
    t.wrap(
        topl_distributed, "topl_icde_spark", "core.topl_distributed.topl_icde_spark",
        group="core.topl_distributed",
    )


def metrics(tracer: Tracer, *, ops: int, overhead_frac: float, jvm_peak_rss_mb: float) -> Dict[str, float]:
    """Per-layer values; online times and counts are totals over ``ops``."""
    t = tracer
    tot, cnt = t.total, t.counted
    propagate = [
        s["end"] - s["start"] for s in t.spans if s["name"] == "influence.mia.cpp_from_seeds"
    ]
    refined = cnt("core.pruning.refined", roots=SYSTEM_ROOTS)
    calls = t.calls("graph.local.seed_community", roots=SYSTEM_ROOTS)
    influence_calls = t.calls("graph.local.influence", roots=SYSTEM_ROOTS)
    distributed = t.calls("core.topl_distributed.topl_icde_spark")
    out: Dict[str, float] = {
        "graph.generators.generate_s": tot("graph.generators.social_network"),
        "graph.triangles.edge_support_s": tot("graph.triangles.edge_support"),
        "graph.triangles.support_rows": cnt("graph.triangles.support_rows", roots=BUILD_ROOTS),
        "graph.triangles.spark_jobs": t.spark_jobs("graph.triangles"),
        "graph.bfs.multi_source_hops_s": tot("graph.bfs.multi_source_hops"),
        "graph.bfs.rounds": cnt("graph.bfs.rounds", roots=BUILD_ROOTS),
        "graph.bfs.membership_rows": cnt("graph.bfs.membership_rows", roots=BUILD_ROOTS),
        "graph.bfs.spark_jobs": t.spark_jobs("graph.bfs"),
        "influence.mia.propagate_s": sum(propagate),
        "influence.mia.rounds": cnt("influence.mia.rounds", roots=BUILD_ROOTS),
        "influence.mia.materializations": cnt("influence.mia.materializations", roots=BUILD_ROOTS),
        "influence.mia.state_rows": cnt("influence.mia.state_rows", roots=BUILD_ROOTS),
        "influence.mia.spark_jobs": t.spark_jobs("influence.mia"),
        "core.precompute.self_s": tot("core.precompute.offline_precompute", self_time=True),
        "core.precompute.spark_jobs": t.spark_jobs("core.precompute"),
        "core.index.build_index_s": tot("core.index.build_index"),
        "core.index.nodes": cnt("core.index.nodes", roots=BUILD_ROOTS),
        "core.index.height": cnt("core.index.height", roots=BUILD_ROOTS),
        "graph.local.snapshot_s": tot("graph.local.from_pandas"),
        "graph.truss.edge_trussness_s": tot("graph.truss.edge_trussness"),
        "graph.truss.spark_jobs": t.spark_jobs("graph.truss"),
        "trace.ops": ops,
        "core.topl.traverse_self_s": tot("core.topl.topl_icde", roots=SYSTEM_ROOTS, self_time=True),
        "core.pruning.refine_yield": influence_calls / refined if refined else 0.0,
        "graph.local.seed_community_s": tot("graph.local.seed_community", roots=SYSTEM_ROOTS),
        "graph.local.seed_community_calls": calls,
        "graph.local.seed_community_null_frac": (
            cnt("graph.local.seed_community_null", roots=SYSTEM_ROOTS) / calls if calls else 0.0
        ),
        "graph.local.ktruss_calls": cnt("graph.local.ktruss_calls", roots=SYSTEM_ROOTS),
        "graph.local.induced_support_calls": cnt("graph.local.induced_support_calls", roots=SYSTEM_ROOTS),
        "graph.local.influence_s": tot("graph.local.influence", roots=SYSTEM_ROOTS),
        "graph.local.influence_calls": influence_calls,
        "graph.local.influence_settled": cnt("graph.local.influence_settled", roots=SYSTEM_ROOTS),
        "core.baseline.atindex_query_s": tot("core.baseline.atindex_query"),
        "core.baseline.atindex_refined": t.calls("graph.local.seed_community", roots=BASELINE_ROOTS),
        "core.diversify.greedy_wp_s": tot("core.diversify.greedy_wp"),
        "core.diversify.gain_evaluations": cnt("core.diversify.gain_evaluations", roots=SYSTEM_ROOTS),
        "core.diversify.pruned_evaluations": cnt("core.diversify.pruned_evaluations", roots=SYSTEM_ROOTS),
        "core.topl_distributed.query_s": (
            tot("core.topl_distributed.topl_icde_spark") / distributed if distributed else 0.0
        ),
        "spark.jvm_peak_rss_mb": jvm_peak_rss_mb,
        "trace.overhead_frac": overhead_frac,
    }
    for r in range(1, 4):
        out[f"influence.mia.propagate_r{r}_s"] = propagate[r - 1] if len(propagate) >= r else 0.0
    for name in PRUNING_FIELDS.values():
        out[name] = cnt(name, roots=SYSTEM_ROOTS)
    return {name: out[name] for name in PER_LAYER}
