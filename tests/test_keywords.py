"""Unit tests for the keyword bit vectors (core/keywords.py) and the
keyword prune (Lemma 1) that consumes them."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keywords import B, bv_of, keyword_bit
from repro.core.pruning import keyword_prune

WORDS = [f"kw{i}" for i in range(100)] + ["movies", "books", "sports", "музыка", "旅行"]


@pytest.mark.parametrize("word", WORDS)
def test_bit_in_range(word):
    assert 0 <= keyword_bit(word) < B


@pytest.mark.parametrize("word", WORDS[:10])
def test_bit_deterministic(word):
    assert keyword_bit(word) == keyword_bit(word)


def test_bv_empty():
    assert bv_of([]) == 0


def test_bv_single_bit():
    bv = bv_of(["kw7"])
    assert bin(bv).count("1") == 1
    assert bv == 1 << keyword_bit("kw7")


def test_bv_union_is_or():
    assert bv_of(["kw1", "kw2"]) == bv_of(["kw1"]) | bv_of(["kw2"])


def test_bv_idempotent_duplicates():
    assert bv_of(["kw1", "kw1", "kw1"]) == bv_of(["kw1"])


def test_bv_fits_long():
    # must be storable in a Spark LongType (signed 64-bit)
    bv = bv_of(WORDS)
    assert 0 <= bv < (1 << 63)


def test_no_false_negative_subset():
    """A set sharing a real keyword always overlaps in bit-vector space."""
    q = ["kw3", "kw14"]
    for w in q:
        assert not keyword_prune(bv_of([w, "kw99"]), bv_of(q))


def test_disjoint_can_only_collide_forward():
    """Overlap of disjoint sets is possible (collision) but a prune (no
    overlap) guarantees disjoint — the direction pruning relies on."""
    a, b = ["kw0"], ["kw1"]
    if keyword_prune(bv_of(a), bv_of(b)):
        assert set(a).isdisjoint(b)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.sampled_from(WORDS), max_size=10),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=10),
)
def test_property_no_false_negatives(vertex_words, query_words):
    """If v.W ∩ Q ≠ ∅ then the bit vectors must overlap (Lemma 1 safety)."""
    if set(vertex_words) & set(query_words):
        assert not keyword_prune(bv_of(vertex_words), bv_of(query_words))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(WORDS), max_size=12))
def test_property_monotone(words):
    """Adding keywords can only set more bits."""
    bv_all = bv_of(words)
    for i in range(len(words)):
        assert bv_of(words[:i]) & bv_all == bv_of(words[:i])
