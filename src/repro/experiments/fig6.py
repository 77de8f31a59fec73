"""Fig. 6 — DTopL-ICDE evaluation (RQ1/RQ4).

(a) Greedy_WP vs Greedy_WoP vs Optimal wall clock on the five graphs;
(b) vary L; (c) vary n; (d) scalability in |V|; (e) accuracy = D(greedy) /
D(optimal) on small (|V| = 1K) graphs. Paper shapes: WP ≈ WoP ≪ Optimal
(≥ 3 orders of magnitude), smooth growth in L / n / |V|, accuracy
99.863%–100%.

All timings include the top-(nL) candidate retrieval (Alg. 3) plus the
greedy/optimal refinement, matching the paper's end-to-end DTopL query time.
"""
from __future__ import annotations

import time
from typing import Dict, List

from pyspark.sql import SparkSession

from repro.core.diversify import dtopl_icde, greedy_wp, optimal
from repro.core.topl import topl_icde
from repro.experiments import params as P
from repro.experiments.datasets import figure2_datasets, prepare
from repro.experiments.runner import make_query
from repro.influence.scores import diversity_score


def _pool(prep, *, n: int, L: int, qseed: int):
    q = make_query(sigma=prep.key[3], qseed=qseed, L=L * n)
    return topl_icde(prep.local, prep.index, q, prep.pre.thetas)


def _timed_dtopl(prep, method: str, *, n: int = P.N_DTOPL, L: int = P.L, qseeds=None, **qkw) -> Dict:
    total, d_total = 0.0, 0.0
    qseeds = P.QUERY_SEEDS if qseeds is None else qseeds
    for qs in qseeds:
        q = make_query(sigma=prep.key[3], qseed=qs, L=L, **qkw)
        t0 = time.perf_counter()
        sel = dtopl_icde(prep.local, prep.index, q, prep.pre.thetas, n=n, method=method)
        total += time.perf_counter() - t0
        d_total += diversity_score([c.cpp for c in sel])
    nq = len(list(qseeds))
    return {"seconds": round(total / nq, 4), "diversity": round(d_total / nq, 2)}


def run_datasets(spark: SparkSession, *, include_optimal: bool = True) -> List[Dict]:
    """Fig. 6(a): the three methods on the five evaluation graphs."""
    rows: List[Dict] = []
    methods = ["wp", "wop"] + (["optimal"] if include_optimal else [])
    for label, prep in figure2_datasets(spark).items():
        for m in methods:
            # Optimal is C(nL, L) ≈ 53K subset evaluations per query — run a
            # single query seed to keep the (deliberately) slow baseline
            # bounded, as the paper does for its slowest competitors.
            qseeds = P.QUERY_SEEDS if m != "optimal" else (P.QUERY_SEEDS[0],)
            rows.append(
                {"dataset": label, "method": m, **_timed_dtopl(prep, m, qseeds=qseeds)}
            )
    return rows


def sweep_L(spark: SparkSession) -> List[Dict]:
    """Fig. 6(b): L ∈ {2, 3, 5, 8, 10} (Greedy_WP, three NWS graphs)."""
    rows: List[Dict] = []
    for d in P.DISTRIBUTIONS:
        prep = prepare(spark, kind="nws", dist=d)
        for L in P.SWEEP_L:
            rows.append(
                {"dist": d, "L": L, **_timed_dtopl(prep, "wp", L=L)}
            )
    return rows


def sweep_n(spark: SparkSession) -> List[Dict]:
    """Fig. 6(c): n ∈ {2, 3, 5, 8, 10} (Greedy_WP)."""
    rows: List[Dict] = []
    for d in P.DISTRIBUTIONS:
        prep = prepare(spark, kind="nws", dist=d)
        for n in P.SWEEP_N_DTOPL:
            rows.append(
                {"dist": d, "n": n, **_timed_dtopl(prep, "wp", n=n)}
            )
    return rows


def sweep_scale(spark: SparkSession, sizes=None) -> List[Dict]:
    """Fig. 6(d): |V| scalability (Greedy_WP, Uni)."""
    rows: List[Dict] = []
    for n_v in (P.SWEEP_NV if sizes is None else sizes):
        prep = prepare(spark, kind="nws", dist="uniform", n=n_v)
        rows.append({"n_vertices": n_v, **_timed_dtopl(prep, "wp")})
    return rows


def accuracy(spark: SparkSession, *, n: int = 1_000) -> List[Dict]:
    """Fig. 6(e): D(Greedy_WP) / D(Optimal) on |V| = 1K graphs.

    Paper setting: 1K vertices, 3 keywords per vertex, |Σ| = 20, the three
    keyword distributions; paper result: 99.863%–100%.
    """
    rows: List[Dict] = []
    for d in P.DISTRIBUTIONS:
        prep = prepare(spark, kind="nws", dist=d, n=n)
        ratios = []
        for qs in P.QUERY_SEEDS:
            pool = _pool(prep, n=P.N_DTOPL, L=P.L, qseed=qs)
            if not pool:
                continue
            sel = greedy_wp(pool, P.L)
            d_greedy = diversity_score([c.cpp for c in sel])
            _, d_opt, _ = optimal(pool, P.L)
            if d_opt > 0:
                ratios.append(d_greedy / d_opt)
        rows.append(
            {
                "dist": d,
                "accuracy_pct": round(100.0 * min(ratios), 3) if ratios else None,
                "accuracy_mean_pct": round(
                    100.0 * sum(ratios) / len(ratios), 3
                ) if ratios else None,
            }
        )
    return rows
