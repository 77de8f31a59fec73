"""Fig. 4 — ablation of the pruning strategies (RQ2).

Three cumulative combinations, each adding one pruning family:
(1) keyword only; (2) keyword + support; (3) keyword + support + score
(score includes the Lemma-7 heap early stop — it is the same bound — and,
with the support family's keyword truss view, both leaf bounds of a center:
σ of its component of T_k(G_Q) and σ of its depth-r ball in T_k(G)).
Reported per combination: candidates pruned (Fig. 4a) and online wall clock
(Fig. 4b). Paper shape: each added strategy prunes more (score pruning adds
the most) and lowers the time. The support family prunes at the leaves only,
with the per-query T_k(G_Q) membership test; the index holds no support bound
(its ``ub_sup_r`` test could not fire on the NWS graphs, DESIGN.md §4).
"""
from __future__ import annotations

from typing import Dict, List

from pyspark.sql import SparkSession

from repro.core.pruning import PruningStats
from repro.experiments import params as P
from repro.experiments.datasets import figure2_datasets
from repro.experiments.runner import timed_topl

COMBOS = (
    ("keyword", dict(use_keyword=True, use_support=False, use_score=False)),
    ("keyword+support", dict(use_keyword=True, use_support=True, use_score=False)),
    ("keyword+support+score", dict(use_keyword=True, use_support=True, use_score=True)),
)


def run(spark: SparkSession) -> List[Dict]:
    rows: List[Dict] = []
    for label, prep in figure2_datasets(spark).items():
        for combo_name, flags in COMBOS:
            stats = PruningStats()
            t, _ = timed_topl(prep, stats=stats, **flags)
            n_q = len(list(P.QUERY_SEEDS))
            rows.append(
                {
                    "dataset": label,
                    "combo": combo_name,
                    "pruned_per_query": round(stats.total_pruned / n_q, 1),
                    "refined_per_query": round(stats.refined / n_q, 1),
                    "seconds": round(t, 4),
                }
            )
    return rows
