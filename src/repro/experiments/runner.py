"""Shared query-execution helpers for the experiment drivers.

Wall-clock measurements mirror the paper's protocol: the reported time is
the *online* query time (index traversal + refinement), averaged over a few
random query-keyword draws; offline pre-computation is amortised (Sec. III).
"""
from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.baseline import atindex_query
from repro.core.pruning import PruningStats
from repro.core.topl import Community, Query, topl_icde
from repro.experiments import params as P
from repro.experiments.datasets import Prepared


def make_query(
    *,
    sigma: int = P.SIGMA_DOMAIN,
    qsize: int = P.Q_SIZE,
    k: int = P.K,
    r: int = P.R,
    theta: float = P.THETA,
    L: int = P.L,
    qseed: int = 0,
) -> Query:
    return Query(
        keywords=P.query_keywords(sigma, qsize, qseed), k=k, r=r, theta=theta, L=L
    )


def timed_topl(
    prep: Prepared,
    *,
    qseeds: Optional[Iterable[int]] = None,
    stats: Optional[PruningStats] = None,
    use_keyword: bool = True,
    use_support: bool = True,
    use_score: bool = True,
    **query_kwargs,
) -> Tuple[float, List[List[Community]]]:
    """Mean online wall-clock (seconds) over query seeds + all answer sets."""
    sigma = prep.key[3]
    total = 0.0
    answers: List[List[Community]] = []
    qseeds = list(P.QUERY_SEEDS if qseeds is None else qseeds)
    for qs in qseeds:
        q = make_query(sigma=sigma, qseed=qs, **query_kwargs)
        t0 = time.perf_counter()
        res = topl_icde(
            prep.local,
            prep.index,
            q,
            prep.pre.thetas,
            use_keyword=use_keyword,
            use_support=use_support,
            use_score=use_score,
            stats=stats,
        )
        total += time.perf_counter() - t0
        answers.append(res)
    return total / max(1, len(qseeds)), answers


def timed_atindex(
    prep: Prepared,
    *,
    qseeds: Optional[Iterable[int]] = None,
    sample: Optional[float] = None,
    **query_kwargs,
) -> Tuple[float, List[List[Community]]]:
    """Mean ATindex online wall-clock; ``sample`` extrapolates by 1/f
    exactly like the paper's DBLP estimate (time_est = time_sampled / f).
    Raises ValueError when ``prep`` was prepared without ATindex."""
    if prep.vtruss is None:
        raise ValueError("prepare(..., with_atindex=True) first")
    sigma = prep.key[3]
    total = 0.0
    answers: List[List[Community]] = []
    qseeds = list(P.QUERY_SEEDS if qseeds is None else qseeds)
    for qs in qseeds:
        q = make_query(sigma=sigma, qseed=qs, **query_kwargs)
        t0 = time.perf_counter()
        res = atindex_query(prep.local, prep.vtruss, q, sample=sample, seed=qs)
        dt = time.perf_counter() - t0
        if sample is not None and sample < 1.0:
            dt = dt / sample
        total += dt
        answers.append(res)
    return total / max(1, len(qseeds)), answers


def summarize(answers: List[List[Community]]) -> Dict[str, float]:
    """Small digest of answer quality for the result tables."""
    found = [len(a) for a in answers]
    tops = [a[0].sigma if a else 0.0 for a in answers]
    return {
        "avg_found": sum(found) / max(1, len(found)),
        "avg_top_sigma": sum(tops) / max(1, len(tops)),
    }
