"""The dataflow online path (predicate pruning + mapInPandas refinement)
must return exactly the same communities as driver-side Algorithm 3."""
from __future__ import annotations

import dataclasses

import pytest

from repro.core.topl import Query, topl_icde
from repro.core.topl_distributed import topl_icde_spark
from repro.graph.local import LocalGraph


def q_default(**overrides):
    base = dict(keywords=frozenset({"kw0", "kw1", "kw2", "kw3", "kw4"}), k=4, r=2, theta=0.2, L=5)
    base.update(overrides)
    return Query(**base)


@pytest.mark.parametrize(
    "q",
    [q_default(), q_default(k=3, L=3), q_default(r=1, theta=0.1)],
    ids=["default", "k3L3", "r1t01"],
)
def test_matches_driver_algorithm(spark, prepared_small, q):
    local = prepared_small.local
    got = topl_icde_spark(spark, prepared_small.pre, local, q)
    want = topl_icde(local, prepared_small.index, q, prepared_small.pre.thetas)
    assert [round(c.sigma, 6) for c in got] == [round(c.sigma, 6) for c in want]
    assert {c.vertices for c in got} == {c.vertices for c in want}
    for c in got:
        assert c.cpp == local.influence(c.vertices, q.theta)
        assert c.sigma == pytest.approx(sum(c.cpp.values()))


def test_small_batches_early_stop(spark, prepared_small):
    """Tiny batches force the between-batch σ_L early stop to fire — the
    result must still be exact."""
    q = q_default()
    got = topl_icde_spark(spark, prepared_small.pre, prepared_small.local, q, batch_size=8)
    want = topl_icde(prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas)
    assert [round(c.sigma, 6) for c in got] == [round(c.sigma, 6) for c in want]


def test_empty_result(spark, prepared_small):
    q = q_default(keywords=frozenset({"nope"}))
    assert topl_icde_spark(spark, prepared_small.pre, prepared_small.local, q) == []


def test_radius_above_r_max_raises(spark, prepared_small):
    """No aggregate row exists past r_max: the dataflow path refuses the
    query as the driver traversal does, instead of answering []."""
    p = prepared_small
    q = q_default(r=p.pre.r_max + 1)
    with pytest.raises(ValueError, match="outside precomputed") as dataflow:
        topl_icde_spark(spark, p.pre, p.local, q)
    with pytest.raises(ValueError) as driver:
        topl_icde(p.local, p.index, q, p.pre.thetas)
    assert str(dataflow.value) == str(driver.value)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_batch_size_below_one_raises(spark, prepared_small, batch_size):
    """A negative size made ``range`` empty: no batch ran and the answer
    came back [] with no error."""
    p = prepared_small
    with pytest.raises(ValueError, match=rf"\bbatch_size={batch_size}\b"):
        topl_icde_spark(spark, p.pre, p.local, q_default(), batch_size=batch_size)


def test_broadcast_holds_no_influence_memo(spark, prepared_small, monkeypatch):
    """A warm driver memo is not shipped: the broadcast snapshot is the same
    graph with every field outside ``==`` (every memo of ``LocalGraph``,
    listed from its declared fields, so a later memo is covered too)
    empty, the driver keeps its memos, and the answers are unchanged."""
    local, q = prepared_small.local, q_default()
    want = topl_icde(local, prepared_small.index, q, prepared_small.pre.thetas)
    assert [c.cpp for c in want] and local.support
    memos = [f.name for f in dataclasses.fields(LocalGraph) if not f.compare]
    assert {"_arbo", "sigma_memo", "cpp_memo", "ball_memo", "_trusses"} <= set(memos)
    # every memo holds something on the driver, so an empty one shipped
    # is one the broadcast emptied
    warm = {name: getattr(local, name) for name in memos}
    assert all(warm.values()), [name for name, memo in warm.items() if not memo]
    sc = spark.sparkContext
    shipped, broadcast = [], sc.broadcast

    def recording(value):
        shipped.append(value)
        return broadcast(value)

    monkeypatch.setattr(sc, "broadcast", recording)
    got = topl_icde_spark(spark, prepared_small.pre, local, q)
    assert len(shipped) == 1
    assert {name: getattr(shipped[0], name) for name in memos if getattr(shipped[0], name)} == {}
    assert shipped[0] == local
    for name in memos:
        assert getattr(local, name) is warm[name] and warm[name], name
    assert [round(c.sigma, 6) for c in got] == [round(c.sigma, 6) for c in want]
    assert {c.vertices for c in got} == {c.vertices for c in want}
