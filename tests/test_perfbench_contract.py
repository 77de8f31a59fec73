"""The benchmark's dtopl-zipf ops run against the program as it is.

``perfbench/workloads.py`` calls ``dtopl_icde`` and ``atindex_query``,
swaps ``diversify.greedy_wp`` out to capture the candidate pool, and reruns
the selection with ``greedy_wop``. A change to any of those signatures fails
here, instead of showing up as a lower ``ok_frac`` in a benchmark run. The
module is imported from its file and not changed.
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


def test_dtopl_zipf_ops_pass_their_checks(spark, prepared_small, workloads):
    """Every op of the first dtopl-zipf queries passes the benchmark's own
    checks (ranked pool against ATindex, ``greedy_wp`` against
    ``greedy_wop``), with the pool captured, and closing the runner puts
    ``greedy_wp`` back."""
    prep = dataclasses.replace(
        prepared_small, vtruss=atindex_offline(spark, prepared_small.graph)
    )
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
