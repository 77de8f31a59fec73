"""Keyword bit vectors (Sec. V-A of the paper).

Every vertex keyword set ``v.W`` is hashed into a ``B``-bit vector ``v.BV``;
the query keyword set ``Q`` is hashed the same way into ``Q.BV``. The vectors
are a *conservative* filter: hash collisions can only cause false positives
(fewer prunes), never false negatives, so keyword pruning (Lemmas 1/5) stays
safe. Final answers are always re-checked against the exact keyword sets.

``B`` is fixed at 48 so a bit vector fits a single Spark ``LongType`` and the
bit-OR aggregation of Algorithm 2 is one ``bit_or`` over a long column.
``B ≤ 52`` is deliberate: every value stays below 2^53, so an accidental
int64→float64→int64 roundtrip anywhere in the pandas/Arrow plumbing is
lossless — a dropped high bit would silently turn the conservative keyword
filter into a wrong-answer prune (observed with B = 64; covered by tests).
"""
from __future__ import annotations

import zlib
from typing import Iterable

#: Bit-vector width. Fits a Spark LongType AND the float64 mantissa (see
#: module docstring).
B = 48

#: Mask keeping results inside a signed 64-bit range (Spark LongType).
_MASK = (1 << 63) - 1


def keyword_bit(word: str) -> int:
    """Deterministic hash of a keyword to a bit position in ``[0, B)``.

    Uses crc32 (stable across processes/runs, unlike Python's ``hash``) so
    the Spark executors, the driver, and the DuckDB oracle all agree.
    """
    return zlib.crc32(word.encode("utf-8")) % B


def bv_of(words: Iterable[str]) -> int:
    """Bit vector of a keyword set: OR of ``1 << keyword_bit(w)``."""
    bv = 0
    for w in words:
        bv |= 1 << keyword_bit(w)
    return bv & _MASK

