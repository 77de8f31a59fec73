"""The benchmark's workloads: fresh build, seeded query streams, answer checks.

Every run builds its dataset from scratch (``prepare(..., cache=False)``),
checks a seeded sample of the offline aggregates against the driver-side
graph, then drives one closed loop (one client: each query is sent when the
previous one returns) over a seeded query stream. The system's method is
timed per query; the exact ATindex answer to the same query is timed on its
own and used as the reference. Every check runs outside the timed calls.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from repro.core import baseline, diversify, topl, topl_distributed
from repro.core.precompute import NO_EDGE_SUPPORT
from repro.core.topl import Community, Query
from repro.experiments import datasets
from repro.experiments import params as P

PROFILES = {
    # |V| is below the Table III default (2K): a fresh 2K build takes about
    # 80 s of Spark work, which does not fit the per-run budget (README).
    # The warm-up runs ``warmup`` queries of a separate stream. The timed
    # stream runs whole passes of :func:`plan` until ``--seconds`` have
    # passed and it holds ``min_timed`` queries, so that at least 10 lie
    # beyond the tail percentile.
    "default": dict(n=200, warmup=10, min_timed=90, check_rows=32, max_stream_s=100.0),
    # a tiny graph and a few queries, for the self-test
    "smoke": dict(n=60, warmup=3, min_timed=1, check_rows=8, max_stream_s=30.0),
}

#: keyword distribution of each workload's graph
DIST = {"topl-uni": "uniform", "dtopl-zipf": "zipf"}

# --------------------------------------------------------------- streams
def _default_query(**over) -> dict:
    q = dict(qsize=P.Q_SIZE, k=P.K, r=P.R, theta=P.THETA, L=P.L)
    q.update(over)
    return q


def topl_settings() -> List[dict]:
    """Table III sweeps, one factor at a time around the defaults."""
    out = [_default_query()]
    sweeps = [
        ("qsize", P.SWEEP_Q), ("k", P.SWEEP_K), ("r", P.SWEEP_R),
        ("theta", P.SWEEP_THETA), ("L", P.SWEEP_L),
    ]
    for name, values in sweeps:
        for v in values:
            s = _default_query(**{name: v})
            if s not in out:
                out.append(s)
    return out


def dtopl_settings() -> List[dict]:
    """DTopL at the Table III defaults, sweeping L, then n (Fig. 6b/6c)."""
    out = [_default_query(n=P.N_DTOPL)]
    for name, values in (("L", P.SWEEP_L), ("n", P.SWEEP_N_DTOPL)):
        for v in values:
            s = _default_query(**{"n": P.N_DTOPL, name: v})
            if s not in out:
                out.append(s)
    return out


#: keyword draws per setting in one pass of the stream
DRAWS = 10


def plan(workload: str) -> List[dict]:
    """One pass of the stream: every setting ``DRAWS`` times, each query with
    a query seed of its own (its index in the pass)."""
    base = topl_settings() if workload == "topl-uni" else dtopl_settings()
    return [dict(s, qseed=i) for i, s in enumerate(s for s in base for _ in range(DRAWS))]


def query_stream(workload: str, seed: int | str) -> Iterator[Tuple[Query, int]]:
    """Endless seeded stream of ``(query, n)``, pass after pass of
    :func:`plan` in an order shuffled by ``seed``.

    Keywords are drawn by ``params.query_keywords`` (|Q| distinct keywords,
    uniform over Σ; Sec. VIII-A) with the fixed query seeds of :func:`plan`,
    so every pass holds the same queries and ``seed`` only picks their order.
    Under Zipf keywords the number of popular keywords a query holds decides
    most of its cost; a fixed set gives every run the same mix of cheap and
    costly queries, so the medians follow the code, not the luck of the draw.
    """
    queries = [
        (
            Query(
                keywords=P.query_keywords(qsize=s["qsize"], seed=s["qseed"]),
                k=s["k"], r=s["r"], theta=s["theta"], L=s["L"],
            ),
            s.get("n", 0),
        )
        for s in plan(workload)
    ]
    rng = random.Random(seed)
    while True:
        order = list(queries)
        rng.shuffle(order)
        yield from order


# ----------------------------------------------------------------- build
@dataclass
class Built:
    prep: datasets.Prepared
    build_s: float
    atindex_build_s: float


def build(spark, workload: str, n: int, graph_seed: int) -> Built:
    """Generate → Algorithm 2 → index → snapshot, then ATindex offline."""
    t0 = time.perf_counter()
    prep = datasets.prepare(
        spark, kind="nws", n=n, dist=DIST[workload], seed=graph_seed, cache=False
    )
    build_s = time.perf_counter() - t0
    if "from_disk_cache" in prep.timings:
        raise RuntimeError("prepare() returned artefacts from the disk cache")
    t0 = time.perf_counter()
    prep.vtruss = baseline.atindex_offline(spark, prep.graph)
    return Built(prep, build_s, time.perf_counter() - t0)


def check_build(prep: datasets.Prepared, rows: int, seed: int) -> List[str]:
    """Recompute a seeded sample of ``(vertex, r)`` aggregates locally."""
    local, pre = prep.local, prep.pre
    pdf = pre.pdf
    rng = random.Random(seed)
    errors: List[str] = []
    for i in rng.sample(range(len(pdf)), min(rows, len(pdf))):
        row = pdf.iloc[i]
        v, r = int(row["vertex"]), int(row["r"])
        hop = set(local.khop(v, r))
        bv = 0
        for u in hop:
            bv |= local.bv[u]
        sup = max(
            (s for (a, b), s in local.support.items() if a in hop and b in hop),
            default=NO_EDGE_SUPPORT,
        )
        if bv != int(row["bv_r"]):
            errors.append(f"bv_r({v}, {r})")
        if sup != int(row["ub_sup_r"]):
            errors.append(f"ub_sup_r({v}, {r}): {sup} != {int(row['ub_sup_r'])}")
        for z, theta in enumerate(pre.thetas):
            want = local.sigma(hop, theta)
            got = float(row[f"sigma_{z}"])
            if not math.isclose(want, got, rel_tol=1e-9, abs_tol=1e-9):
                errors.append(f"sigma_{z}({v}, {r}): {got} != {want}")
    return errors


# ------------------------------------------------------------------- ops
def _sigmas(answer: List[Community]) -> List[float]:
    return [round(c.sigma, 9) for c in answer]


def _same_sigmas(a: List[Community], b: List[Community]) -> bool:
    return len(a) == len(b) and all(
        math.isclose(x.sigma, y.sigma, rel_tol=1e-9, abs_tol=1e-9) for x, y in zip(a, b)
    )


@dataclass
class OpResult:
    """One op's answer, check errors and times. ``system_s`` and
    ``reference_s`` are CPU seconds of this process (``time.process_time``);
    ``system_wall_s`` is the wall clock of the system's method."""

    system_s: float
    reference_s: float
    answer: List[Community]
    errors: List[str]
    system_wall_s: float = 0.0


class Runner:
    """Runs one workload's ops against a built dataset."""

    def __init__(self, workload: str, prep: datasets.Prepared) -> None:
        self.workload = workload
        self.prep = prep
        self.pool: List[Community] = []
        self.corrupt_next = False
        original = diversify.greedy_wp

        # dtopl_icde hands its top-(n·L) pool to greedy_wp; keep a reference
        # so the check can rerun the selection without pruning.
        def capture(candidates, L, stats=None):
            self.pool = list(candidates)
            return original(candidates, L, stats)

        self._restore = (diversify, "greedy_wp", original)
        diversify.greedy_wp = capture

    def close(self) -> None:
        owner, attr, original = self._restore
        setattr(owner, attr, original)

    def system(self, q: Query, n: int) -> List[Community]:
        p = self.prep
        if self.workload == "topl-uni":
            return topl.topl_icde(p.local, p.index, q, p.pre.thetas)
        return diversify.dtopl_icde(p.local, p.index, q, p.pre.thetas, n=n, method="wp")

    def reference_query(self, q: Query, n: int) -> Query:
        if self.workload == "topl-uni":
            return q
        return Query(keywords=q.keywords, k=q.k, r=q.r, theta=q.theta, L=q.L * n)

    def op(self, q: Query, n: int) -> OpResult:
        """One query: the system's method, then the ATindex reference.

        Both run in this thread on the driver-side snapshot while Spark is
        idle, so they are timed in CPU seconds of the process: time the host
        gives to other processes does not count, the program's own work in
        any thread of the process (garbage collection included) does."""
        w0, t0 = time.perf_counter(), time.process_time()
        answer = self.system(q, n)
        system_s = time.process_time() - t0
        system_wall_s = time.perf_counter() - w0
        pool = self.pool
        t0 = time.process_time()
        ref = baseline.atindex_query(self.prep.local, self.prep.vtruss, self.reference_query(q, n))
        reference_s = time.process_time() - t0
        errors = self.check(q, answer, pool, ref)
        return OpResult(system_s, reference_s, answer, errors, system_wall_s)

    def dataflow_op(self, spark, q: Query, n: int, tracing: Callable) -> OpResult:
        """The Catalyst + mapInPandas path on the reference query, checked
        against the driver-side traversal."""
        p = self.prep
        rq = self.reference_query(q, n)
        want = topl.topl_icde(p.local, p.index, rq, p.pre.thetas)
        t0 = time.perf_counter()
        with tracing():
            got = topl_distributed.topl_icde_spark(spark, p.pre, p.local, rq)
        dt = time.perf_counter() - t0
        errors = [] if _same_sigmas(got, want) else [f"{rq}: dataflow path differs"]
        return OpResult(dt, 0.0, got, errors)

    def check(self, q: Query, answer, pool, ref) -> List[str]:
        ranked = answer if self.workload == "topl-uni" else pool
        if self.corrupt_next:
            self.corrupt_next = False
            ranked = [Community(c.center, c.vertices, c.sigma + 1.0) for c in ranked] or [
                Community(-1, frozenset(), 1.0)
            ]
        errors = []
        if not _same_sigmas(ranked, ref):
            errors.append(f"{q}: ranked σ {_sigmas(ranked)} != ATindex {_sigmas(ref)}")
        if self.workload == "dtopl-zipf":
            wop = diversify.greedy_wop(pool, q.L)
            if [c.vertices for c in wop] != [c.vertices for c in answer]:
                errors.append(f"{q}: greedy_wp selection differs from greedy_wop")
        return errors


def digest(answers: List[List[Community]]) -> str:
    """Hash of ranked σ (to 1e-9) and sorted vertex sets, per query."""
    h = hashlib.sha256()
    for a in answers:
        rec = [_sigmas(a), sorted(sorted(c.vertices) for c in a)]
        h.update(json.dumps(rec).encode())
    return h.hexdigest()[:16]


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100.0 * len(s)) - 1)]


@dataclass
class Tally:
    """Ops attempted and failed; an op fails if it raises or a check fails."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def record(self, errors: List[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.notes.extend(errors)
            for e in errors:
                print(f"perfbench: check failed: {e}", file=sys.stderr)

    def attempt(self, fn: Callable[[], OpResult]) -> Optional[OpResult]:
        try:
            res = fn()
        except Exception:  # a failed op is counted, and the stream goes on
            self.record([traceback.format_exc()])
            return None
        self.record(res.errors)
        return res
