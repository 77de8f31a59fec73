"""In-memory spans and counters recorded around calls into repro's layers.

A :class:`Tracer` swaps a module's (or class's) attribute for a wrapper that
opens a span — name, start, end, parent span, op id — around the original
call, then restores every original on exit from :meth:`Tracer.active`.
Nothing inside ``src/`` is changed: the spans sit at the public call
boundaries, so a layer's self time is its span minus its child spans.

Spark work is attributed with job groups: a wrapper that names a group sets
it for the duration of its span and restores the caller's group after, so
each Spark job counts for the innermost traced layer that launched it.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

#: job group of Spark work that no traced layer launched
ROOT_GROUP = "bench"


class Tracer:
    """Spans and counters for one benchmark run (kept in memory)."""

    def __init__(self, spark_context) -> None:
        self.sc = spark_context
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        self._open: List[Dict[str, Any]] = []
        self._groups: List[str] = [ROOT_GROUP]
        self._patches: List[tuple] = []
        self._set_group(ROOT_GROUP)

    # ------------------------------------------------------------ spans
    @contextmanager
    def span(self, name: str, group: Optional[str] = None):
        """Record one span; with ``group``, Spark jobs inside count for it."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec)
        if group is not None:
            self._groups.append(group)
            self._set_group(group)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            if group is not None:
                self._groups.pop()
                self._set_group(self._groups[-1])

    def root(self) -> Optional[str]:
        """Name of the outermost open span (the op that caused the call)."""
        return self._open[0]["name"] if self._open else None

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to a counter, keyed by the root span it happened under."""
        self.counters[f"{self.root()}|{name}"] += value

    def _set_group(self, group: str) -> None:
        self.sc.setJobGroup(group, group)

    # --------------------------------------------------------- patching
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        group: Optional[str] = None,
        after: Optional[Callable[[Dict[str, Any], Any, tuple, dict], Any]] = None,
        around: Optional[Callable[[Callable, tuple, dict], Any]] = None,
    ) -> None:
        """Register a span wrapper for ``owner.attr`` (applied by :meth:`active`).

        ``around(original, args, kwargs)`` replaces the plain call inside the
        span; ``after(span, result, args, kwargs)`` runs once the span has
        closed, so counting rows there is not charged to the layer.
        """

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with self.span(name, group) as rec:
                    if around is None:
                        result = original(*args, **kwargs)
                    else:
                        result = around(original, args, kwargs)
                if after is not None:
                    after(rec, result, args, kwargs)
                return result

            return traced

        self._patches.append((owner, attr, make))

    def counter(self, owner: Any, attr: str, name: str) -> None:
        """Register a call counter (no span) for ``owner.attr``."""

        def make(original):
            @functools.wraps(original)
            def counting(*args, **kwargs):
                self.count(name)
                return original(*args, **kwargs)

            return counting

        self._patches.append((owner, attr, make))

    @contextmanager
    def active(self):
        """Install every registered wrapper; restore the originals on exit."""
        installed = []
        try:
            for owner, attr, make in self._patches:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(raw.__func__))
                else:
                    wrapped = make(raw)
                installed.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(installed):
                setattr(owner, attr, raw)

    # ------------------------------------------------------- aggregates
    def _children(self) -> Dict[int, List[Dict[str, Any]]]:
        kids: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                kids[s["parent"]].append(s)
        return kids

    def _root_of(self, span: Dict[str, Any]) -> str:
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span["name"]

    def total(self, name: str, *, roots: Optional[tuple] = None, self_time: bool = False) -> float:
        """Summed duration (or self time) of closed spans called ``name``.

        ``roots`` keeps only spans whose outermost ancestor is one of them.
        Self time subtracts the direct children; calls in one thread do
        not overlap, so their durations add up to the covered interval.
        """
        kids = self._children() if self_time else {}
        out = 0.0
        for s in self.spans:
            if s["name"] != name or s["end"] is None:
                continue
            if roots is not None and self._root_of(s) not in roots:
                continue
            d = s["end"] - s["start"]
            if self_time:
                d -= sum(c["end"] - c["start"] for c in kids.get(s["id"], ()))
            out += d
        return out

    def calls(self, name: str, *, roots: Optional[tuple] = None) -> int:
        return sum(
            1
            for s in self.spans
            if s["name"] == name and (roots is None or self._root_of(s) in roots)
        )

    def counted(self, name: str, *, roots: tuple) -> float:
        return sum(self.counters.get(f"{r}|{name}", 0.0) for r in roots)

    def spark_jobs(self, group: str) -> int:
        """Spark jobs launched while ``group`` was the innermost job group."""
        return len(self.sc.statusTracker().getJobIdsForGroup(group))
