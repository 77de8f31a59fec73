"""The benchmark's ops run against the program as it is.

``perfbench/workloads.py`` calls ``topl_icde``, ``dtopl_icde`` and
``atindex_query``, swaps ``diversify.greedy_wp`` out to capture the
candidate pool, reruns the selection with ``greedy_wop``, and builds
``Community(center, vertices, sigma)`` positionally for its self-test. A
change to any of those signatures fails here, instead of showing up as a
lower ``ok_frac`` in a benchmark run. The module is imported from its file
and not changed.
"""
from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core import diversify
from repro.core.baseline import atindex_offline

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py`` as a module."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


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
