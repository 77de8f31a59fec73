"""Integration tests for the experiment drivers (shrunk to test scale)."""
from __future__ import annotations

from dataclasses import replace

import pandas as pd
import pytest

from repro.core.topl import Query, topl_icde
from repro.experiments import datasets as D
from repro.experiments import params as P
from repro.experiments.runner import make_query, summarize, timed_atindex, timed_topl


@pytest.fixture(autouse=True)
def shrink(monkeypatch):
    """Run every driver at toy scale: the drivers read these at call time."""
    monkeypatch.setattr(P, "N_VERTICES", 150)
    monkeypatch.setattr(D, "DBLP_LIKE_N", 150)
    monkeypatch.setattr(D, "AMAZON_LIKE_N", 150)
    monkeypatch.setattr(D, "FIG2_NWS_N", 150)
    monkeypatch.setattr(P, "QUERY_SEEDS", (0,))
    monkeypatch.setattr(P, "SWEEP_NV", (100, 150))
    yield


def test_prepare_caches(spark):
    a = D.prepare(spark, kind="nws", n=150, dist="uniform", seed=2)
    b = D.prepare(spark, kind="nws", n=150, dist="uniform", seed=2)
    assert a is b


def test_prepare_records_timings(spark):
    p = D.prepare(spark, kind="nws", n=150, dist="uniform", seed=2)
    assert {"generate", "precompute", "index", "snapshot"} <= set(p.timings)


def test_table2_stats(spark):
    rows = D.table2_stats(spark)
    assert {r["dataset"] for r in rows} == {"Uni", "Gau", "Zipf", "DBLP-like", "Amazon-like"}
    for r in rows:
        assert r["num_vertices"] == 150 and r["num_edges"] > 0


def test_make_query_uses_domain(spark):
    q = make_query(sigma=10, qsize=4, qseed=1)
    assert len(q.keywords) == 4
    assert all(kw.startswith("kw") for kw in q.keywords)


def test_timed_topl_runs(spark):
    prep = D.prepare(spark, kind="nws", n=150, dist="uniform", seed=2)
    secs, answers = timed_topl(prep, qseeds=(0, 1))
    assert secs >= 0 and len(answers) == 2
    digest = summarize(answers)
    assert digest["avg_found"] >= 0


def test_timed_atindex_extrapolates(spark):
    prep = D.prepare(spark, kind="nws", n=150, dist="uniform", seed=2, with_atindex=True)
    full, _ = timed_atindex(prep, qseeds=(0,))
    sampled, _ = timed_atindex(prep, qseeds=(0,), sample=0.5)
    assert full > 0 and sampled > 0  # sampled time is scaled by 1/f


def test_timed_atindex_without_vtruss_raises(spark):
    """A ValueError, not an assert: ``python -O`` strips asserts, and the
    failure became an AttributeError inside ``atindex_query``."""
    prep = D.prepare(spark, kind="nws", n=150, dist="uniform", seed=2)
    with pytest.raises(ValueError, match=r"with_atindex=True"):
        timed_atindex(replace(prep, vtruss=None), qseeds=(0,))


def test_fig3_query_sweep_shape(spark):
    from repro.experiments import fig3

    rows = fig3.sweep_k(spark)
    assert len(rows) == len(P.SWEEP_K) * len(P.DISTRIBUTIONS)
    assert all(r["seconds"] >= 0 for r in rows)


def test_fig3_scale_sweep(spark):
    from repro.experiments import fig3

    rows = fig3.sweep_scale(spark)
    assert [r["value"] for r in rows] == [100, 150]


def test_fig4_ablation_shape(spark):
    from repro.experiments import fig4

    rows = fig4.run(spark)
    assert len(rows) == 5 * 3
    by_ds = {}
    for r in rows:
        by_ds.setdefault(r["dataset"], []).append(r)
    for ds, rs in by_ds.items():
        pruned = [r["pruned_per_query"] for r in rs]
        assert pruned == sorted(pruned), f"more pruning methods must prune ≥ ({ds})"


def test_fig5_case_study(spark):
    from repro.experiments import fig5

    res = fig5.run(spark)
    if res.get("found"):
        assert res["truss"]["size"] >= 1
        assert res["truss"]["sigma"] > 0


def test_fig6_accuracy_bounds(spark):
    from repro.experiments import fig6

    rows = fig6.accuracy(spark, n=150)
    import math

    for r in rows:
        if r["accuracy_pct"] is not None:
            assert 100 * (1 - 1 / math.e) - 1e-6 <= r["accuracy_pct"] <= 100.0 + 1e-6


def test_fig6_dtopl_methods(spark):
    from repro.experiments import fig6

    rows = fig6.run_datasets(spark, include_optimal=False)
    assert {r["method"] for r in rows} == {"wp", "wop"}
    by_ds = {}
    for r in rows:
        by_ds.setdefault(r["dataset"], {})[r["method"]] = r["diversity"]
    for ds, d in by_ds.items():
        assert d["wp"] == pytest.approx(d["wop"], abs=1e-6)


def test_unreadable_disk_cache_warns_and_rebuilds(spark, monkeypatch, tmp_path):
    """A damaged cache file is reported, never reused, and rebuilt."""
    monkeypatch.setattr(D, "CACHE_DIR", str(tmp_path))
    kw = dict(kind="nws", n=40, dist="uniform", seed=11)
    key = ("nws", 40, "uniform", P.SIGMA_DOMAIN, P.W_PER_VERTEX, 11, P.R_MAX, P.THETAS)
    with open(D._cache_path(key), "wb") as f:
        f.write(b"\x04not a pickle")
    with pytest.warns(UserWarning, match="unreadable"):
        prep = D.prepare(spark, **kw)
    assert prep.key == key
    assert "from_disk_cache" not in prep.timings
    assert D._disk_load(key)["key"] == key  # the rebuild replaced the file


def test_disk_cache_ignores_unversioned_files(monkeypatch, tmp_path):
    """A cache file written by code without ``CACHE_VERSION`` in its key
    (for example one holding trussness capped at 20) is never loaded."""
    import hashlib
    import pickle

    monkeypatch.setattr(D, "CACHE_DIR", str(tmp_path))
    key = ("nws", 40, "uniform", P.SIGMA_DOMAIN, P.W_PER_VERTEX, 11, P.R_MAX, P.THETAS)
    old = tmp_path / f"prep_{hashlib.sha1(repr(key).encode()).hexdigest()[:16]}.pkl"
    old.write_bytes(pickle.dumps({"key": key, "vtruss": {0: 20}}))
    assert D._disk_load(key) is None
    D._disk_store(key, {"vtruss": {0: 23}})
    assert D._disk_load(key)["vtruss"] == {0: 23}


def test_disk_cache_hit_equals_fresh_build(spark, monkeypatch, tmp_path):
    """A disk hit returns the fresh build's aggregates, θ grid and answers,
    also when ``params.THETAS`` is not in ascending order (each σ column
    must stay paired with its θ, or the score prune is unsafe)."""
    monkeypatch.setattr(D, "CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(D, "_CACHE", {})
    monkeypatch.setattr(P, "THETAS", (0.3, 0.1, 0.2))
    kw = dict(kind="nws", n=60, dist="uniform", seed=11)
    fresh = D.prepare(spark, **kw)
    D.clear_cache()
    hit = D.prepare(spark, **kw)
    assert "from_disk_cache" in hit.timings and "from_disk_cache" not in fresh.timings
    pd.testing.assert_frame_equal(hit.pre.pdf, fresh.pre.pdf)
    assert hit.pre.thetas == fresh.pre.thetas == (0.1, 0.2, 0.3)
    found = 0
    for theta in (0.1, 0.2, 0.3):
        q = Query(keywords=frozenset(f"kw{i}" for i in range(8)), k=3, r=2, theta=theta, L=5)
        want = topl_icde(fresh.local, fresh.index, q, fresh.pre.thetas)
        got = topl_icde(hit.local, hit.index, q, hit.pre.thetas)
        assert [(c.center, c.vertices, c.sigma) for c in got] == [
            (c.center, c.vertices, c.sigma) for c in want
        ]
        found += len(want)
    assert found > 0
