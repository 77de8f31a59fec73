"""ATindex baseline: must return exactly the brute-force answers (it prunes
by trussness + keyword but refines everything surviving)."""
from __future__ import annotations

import pytest

from repro.core.baseline import atindex_offline, atindex_query
from repro.core.topl import Query, brute_force_topl


@pytest.fixture(scope="module")
def vtruss(spark, prepared_small):
    return atindex_offline(spark, prepared_small.graph)


def q_default(**overrides):
    base = dict(keywords=frozenset({"kw0", "kw1", "kw2", "kw3", "kw4"}), k=4, r=2, theta=0.2, L=5)
    base.update(overrides)
    return Query(**base)


def test_vertex_trussness_sound(vtruss, prepared_small):
    """Every vertex of the maximal k-truss has vertex-trussness ≥ k."""
    local = prepared_small.local
    vs, _ = local.ktruss(set(local.adj), 4)
    for v in vs:
        assert vtruss.get(v, 2) >= 4


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("L", [3, 5])
def test_matches_brute_force(prepared_small, vtruss, k, L):
    q = q_default(k=k, L=L)
    got = atindex_query(prepared_small.local, vtruss, q)
    want = brute_force_topl(prepared_small.local, q)
    assert [round(c.sigma, 6) for c in got] == [round(c.sigma, 6) for c in want]


def test_matches_index_approach(prepared_small, vtruss):
    from repro.core.topl import topl_icde

    q = q_default()
    a = atindex_query(prepared_small.local, vtruss, q)
    b = topl_icde(prepared_small.local, prepared_small.index, q, prepared_small.pre.thetas)
    assert [round(c.sigma, 6) for c in a] == [round(c.sigma, 6) for c in b]


def test_sampling_returns_subset_quality(prepared_small, vtruss):
    """A sampled run returns communities whose σ never beats the full run's
    top-1 (it sees fewer centers)."""
    q = q_default()
    full = atindex_query(prepared_small.local, vtruss, q)
    sampled = atindex_query(prepared_small.local, vtruss, q, sample=0.3, seed=1)
    if full and sampled:
        assert sampled[0].sigma <= full[0].sigma + 1e-9
    assert len(sampled) <= len(full)


@pytest.mark.parametrize(
    "q",
    [q_default(keywords=frozenset({"nope"})), q_default(k=30)],
    ids=["no-keyword", "k-above-trussness"],
)
def test_sampling_without_candidates_is_empty(prepared_small, vtruss, q):
    """No center survives the trussness + keyword filter: nothing to sample."""
    assert atindex_query(prepared_small.local, vtruss, q, sample=0.3, seed=1) == []
