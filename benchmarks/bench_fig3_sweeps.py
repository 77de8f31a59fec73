"""Fig. 3 — TopL-ICDE online time under the Table III parameter sweeps.

Query-time parameters (θ, |Q|, k, r, L) sweep on the default Uni graph; the
data parameters (|v.W|, |Σ|, |V|) rebuild graph + offline phase per value
(cached for the session). Paper anchors are listed in DESIGN.md §5.
"""
from __future__ import annotations

import pytest

from repro.core.topl import topl_icde
from repro.experiments import params as P
from repro.experiments.datasets import prepare
from repro.experiments.runner import make_query


def _bench_query(benchmark, prep, **qkw):
    q = make_query(sigma=prep.key[3], qseed=0, **qkw)
    result = benchmark.pedantic(
        lambda: topl_icde(prep.local, prep.index, q, prep.pre.thetas),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["n_found"] = len(result)


@pytest.mark.parametrize("theta", P.SWEEP_THETA)
def test_fig3a_theta(benchmark, uni_prepared, theta):
    _bench_query(benchmark, uni_prepared, theta=theta)


@pytest.mark.parametrize("qsize", P.SWEEP_Q)
def test_fig3b_qsize(benchmark, uni_prepared, qsize):
    _bench_query(benchmark, uni_prepared, qsize=qsize)


@pytest.mark.parametrize("k", P.SWEEP_K)
def test_fig3c_k(benchmark, uni_prepared, k):
    _bench_query(benchmark, uni_prepared, k=k)


@pytest.mark.parametrize("r", P.SWEEP_R)
def test_fig3d_r(benchmark, uni_prepared, r):
    _bench_query(benchmark, uni_prepared, r=r)


@pytest.mark.parametrize("L", P.SWEEP_L)
def test_fig3e_L(benchmark, uni_prepared, L):
    _bench_query(benchmark, uni_prepared, L=L)


@pytest.mark.parametrize("w", P.SWEEP_W)
def test_fig3f_w(benchmark, spark, w):
    prep = prepare(spark, kind="nws", dist="uniform", w=w)
    _bench_query(benchmark, prep)


@pytest.mark.parametrize("sigma", P.SWEEP_SIGMA)
def test_fig3g_sigma_domain(benchmark, spark, sigma):
    prep = prepare(spark, kind="nws", dist="uniform", sigma=sigma)
    _bench_query(benchmark, prep)


@pytest.mark.parametrize("n", P.SWEEP_NV)
def test_fig3h_scale(benchmark, spark, n):
    prep = prepare(spark, kind="nws", dist="uniform", n=n)
    _bench_query(benchmark, prep)
    benchmark.extra_info["offline_sec"] = round(prep.timings.get("precompute", 0.0), 1)
