"""The benchmark's ops run against the program as it is.

``perfbench/workloads.py`` calls ``topl_icde``, ``dtopl_icde`` and
``atindex_query``, swaps ``diversify.greedy_wp`` out to capture the
candidate pool, reruns the selection with ``greedy_wop``, and builds
``Community(center, vertices, sigma)`` positionally for its self-test.
Its build check reads ``LocalGraph.support``, ``NO_EDGE_SUPPORT`` and the
``Precomputed.pdf`` columns. ``perfbench/layers.py`` wraps about a dozen
names of the program for the traced run (``LocalGraph.seed_community``,
``ktruss`` and ``induced_support``, ``precompute.edge_support``, ...).
A change to any of those names or signatures fails here, instead of
showing up as a lower ``ok_frac`` or a failed benchmark run. The modules
are imported from their files and not changed.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core import diversify
from repro.core.baseline import atindex_offline

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def loaded(name: str, file: str):
    """``perfbench/<file>`` as the module ``name``, registered under that
    name while in use: dataclasses look their module up, and ``layers.py``
    imports ``spans`` by name."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / file)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py`` as a module."""
    with loaded("perfbench_workloads", "workloads.py") as module:
        yield module


@pytest.fixture(scope="module")
def layers():
    """``perfbench/layers.py`` as a module, with ``spans.py`` under the
    name it imports."""
    with loaded("spans", "spans.py"), loaded("perfbench_layers", "layers.py") as module:
        yield module


@pytest.fixture(scope="module")
def prep(spark, prepared_small):
    """The small prepared dataset with ATindex's vertex trussness."""
    return dataclasses.replace(
        prepared_small, vtruss=atindex_offline(spark, prepared_small.graph)
    )


def test_dtopl_zipf_ops_pass_their_checks(prep, workloads):
    """Every op of the first dtopl-zipf queries passes the benchmark's own
    checks (ranked pool against ATindex, ``greedy_wp`` against
    ``greedy_wop``), with the pool captured, and closing the runner puts
    ``greedy_wp`` back."""
    original = diversify.greedy_wp
    runner = workloads.Runner("dtopl-zipf", prep)
    try:
        stream = workloads.query_stream("dtopl-zipf", 3)
        for _ in range(12):
            q, n = next(stream)
            runner.pool = []
            res = runner.op(q, n)
            assert res.errors == [], res.errors
            assert runner.pool and len(res.answer) == min(q.L, len(runner.pool)), q
    finally:
        runner.close()
    assert diversify.greedy_wp is original


def test_topl_uni_ops_pass_their_checks(prep, workloads):
    """Every op of the first topl-uni queries passes the check against
    ATindex, and an op with ``corrupt_next`` set, whose check compares
    communities rebuilt positionally with σ + 1, reports the error once."""
    runner = workloads.Runner("topl-uni", prep)
    try:
        stream = workloads.query_stream("topl-uni", 3)
        for _ in range(12):
            q, n = next(stream)
            res = runner.op(q, n)
            assert res.errors == [], res.errors
            assert len(res.answer) <= q.L, q
        runner.corrupt_next = True
        res = runner.op(*next(stream))
        assert len(res.errors) == 1 and "!= ATindex" in res.errors[0], res.errors
        assert runner.corrupt_next is False
        assert runner.op(*next(stream)).errors == []
    finally:
        runner.close()


def test_traced_ops_find_every_name_the_benchmark_wraps(spark, prep, workloads, layers):
    """The traced run's wrappers install on the session's SparkContext
    (``layers.install``, then ``Tracer.active``, which looks up every
    wrapped name), the build check passes, one traced op per workload
    passes its checks, and ``layers.metrics`` reports every ``PER_LAYER``
    name, with the refinements of both ops counted."""
    original = diversify.greedy_wp
    tracer = layers.Tracer(spark.sparkContext)
    layers.install(tracer)
    assert workloads.check_build(prep, 8, 3) == []
    for op, workload in enumerate(("topl-uni", "dtopl-zipf")):
        runner = workloads.Runner(workload, prep)
        try:
            q, n = next(workloads.query_stream(workload, 3))
            tracer.op = op
            with tracer.active():
                res = runner.op(q, n)
            assert res.errors == [], res.errors
        finally:
            runner.close()
    assert diversify.greedy_wp is original
    metrics = layers.metrics(tracer, ops=2, overhead_frac=0.0, jvm_peak_rss_mb=0.0)
    assert list(metrics) == list(layers.PER_LAYER)
    assert metrics["core.pruning.refined"] > 0
    assert metrics["graph.local.seed_community_calls"] > 0
