"""A fixed slice of pure-Python work that tracks the machine's current speed.

On a shared host the same interpreter work can take up to twice as long from
one minute to the next. The timed stream runs one slice before and one after
every query and records their mean CPU time, so that each query's CPU time
can be read against the speed the machine had at that moment (see README,
"Sizing and noise").
The slice does what the online phase does, on a fixed graph: breadth-first
search over sets, set intersections, dict updates and a heap.
"""
from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Dict, List, Sequence, Set

#: slice CPU time, in seconds, on the machine the reference figures come from
REFERENCE_S = 0.0015


def _ring(n: int = 400, reach: int = 3) -> Dict[int, Set[int]]:
    adj: Dict[int, Set[int]] = {v: set() for v in range(n)}
    for v in range(n):
        for d in range(1, reach + 1):
            adj[v].add((v + d) % n)
            adj[(v + d) % n].add(v)
    return adj


_ADJ = _ring()


def run_slice() -> float:
    """CPU seconds one slice takes now in this thread.

    The collector is off during the slice, so its time does not grow with the
    program's heap, and the clock counts only this thread, so threads the
    program starts do not slow the slice: both stay in the program's figures.
    """
    adj = _ADJ
    gc.disable()
    try:
        t0 = time.thread_time()
        for center in range(0, len(adj), 17):
            dist = {center: 0}
            frontier: List[int] = [center]
            for d in range(1, 4):
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in dist:
                            dist[v] = d
                            nxt.append(v)
                frontier = nxt
            support = {
                (u, v): len(adj[u] & adj[v]) for u in dist for v in adj[u] if v in dist and u < v
            }
            best = {center: 1.0}
            heap = [(-1.0, center)]
            while heap:
                negp, u = heapq.heappop(heap)
                for v in adj[u]:
                    q = -negp * 0.55
                    if q >= 0.1 and q > best.get(v, 0.0):
                        best[v] = q
                        heapq.heappush(heap, (-q, v))
            if not support or not best:
                raise AssertionError("calibration slice did no work")
        return time.thread_time() - t0
    finally:
        gc.enable()


def normalise(latencies: Sequence[float], slices: Sequence[float], half_window: int = 4) -> List[float]:
    """Latencies rescaled to the reference machine speed: each one times
    ``REFERENCE_S`` over the median slice time of the queries around it."""
    out = []
    for i, x in enumerate(latencies):
        window = slices[max(0, i - half_window) : i + half_window + 1]
        out.append(x * REFERENCE_S / statistics.median(window))
    return out
