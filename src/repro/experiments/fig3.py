"""Fig. 3 — robustness of TopL-ICDE wall clock under parameter sweeps.

Panels (a)–(e) vary query-time parameters (θ, |Q|, k, r, L) on the three
synthetic graphs Uni/Gau/Zipf; panels (f)–(h) vary data parameters
(|v.W|, |Σ|, |V|), which require regenerating graph + offline phase — those
run on Uni only to keep the offline budget single-machine (DESIGN.md §4).
The paper's quoted ranges are listed in DESIGN.md §5.
"""
from __future__ import annotations

from typing import Dict, List

from pyspark.sql import SparkSession

from repro.experiments import params as P
from repro.experiments.datasets import prepare
from repro.experiments.runner import summarize, timed_topl

_LABEL = {"uniform": "Uni", "gaussian": "Gau", "zipf": "Zipf"}


def _query_param_sweep(spark: SparkSession, param: str, values) -> List[Dict]:
    rows: List[Dict] = []
    for d in P.DISTRIBUTIONS:
        prep = prepare(spark, kind="nws", dist=d)
        for v in values:
            t, ans = timed_topl(prep, **{param: v})
            rows.append(
                {
                    "dist": _LABEL[d],
                    "param": param,
                    "value": v,
                    "seconds": round(t, 4),
                    **summarize(ans),
                }
            )
    return rows


def sweep_theta(spark: SparkSession) -> List[Dict]:
    """Fig. 3(a): θ ∈ {0.1, 0.2, 0.3}."""
    return _query_param_sweep(spark, "theta", P.SWEEP_THETA)


def sweep_qsize(spark: SparkSession) -> List[Dict]:
    """Fig. 3(b): |Q| ∈ {2, 3, 5, 8, 10}."""
    return _query_param_sweep(spark, "qsize", P.SWEEP_Q)


def sweep_k(spark: SparkSession) -> List[Dict]:
    """Fig. 3(c): k ∈ {3, 4, 5}."""
    return _query_param_sweep(spark, "k", P.SWEEP_K)


def sweep_r(spark: SparkSession) -> List[Dict]:
    """Fig. 3(d): r ∈ {1, 2, 3}."""
    return _query_param_sweep(spark, "r", P.SWEEP_R)


def sweep_L(spark: SparkSession) -> List[Dict]:
    """Fig. 3(e): L ∈ {2, 3, 5, 8, 10}."""
    return _query_param_sweep(spark, "L", P.SWEEP_L)


def sweep_w(spark: SparkSession) -> List[Dict]:
    """Fig. 3(f): keywords per vertex |v.W| ∈ {1..5} (new graphs, Uni)."""
    rows: List[Dict] = []
    for w in P.SWEEP_W:
        prep = prepare(spark, kind="nws", dist="uniform", w=w)
        t, ans = timed_topl(prep)
        rows.append(
            {"dist": "Uni", "param": "w", "value": w, "seconds": round(t, 4), **summarize(ans)}
        )
    return rows


def sweep_sigma_domain(spark: SparkSession) -> List[Dict]:
    """Fig. 3(g): keyword domain |Σ| ∈ {10, 20, 50, 80} (new graphs, Uni)."""
    rows: List[Dict] = []
    for s in P.SWEEP_SIGMA:
        prep = prepare(spark, kind="nws", dist="uniform", sigma=s)
        t, ans = timed_topl(prep)
        rows.append(
            {"dist": "Uni", "param": "sigma", "value": s, "seconds": round(t, 4), **summarize(ans)}
        )
    return rows


def sweep_scale(spark: SparkSession) -> List[Dict]:
    """Fig. 3(h): |V(G)| scalability over ``params.SWEEP_NV`` (paper
    10K→1M; here 500→5K, or →10K with ``REPRO_SWEEP_NV_MAX=10000``)."""
    rows: List[Dict] = []
    for n in P.SWEEP_NV:
        prep = prepare(spark, kind="nws", dist="uniform", n=n)
        t, ans = timed_topl(prep)
        rows.append(
            {
                "dist": "Uni",
                "param": "n_vertices",
                "value": n,
                "seconds": round(t, 4),
                "offline_sec": round(prep.timings.get("precompute", 0.0), 2),
                **summarize(ans),
            }
        )
    return rows
