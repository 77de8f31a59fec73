"""Run one TopL-ICDE query end to end and print the answer communities.

    spark-submit jobs/run_topl.py [--k 4] [--r 2] [--theta 0.2] [--L 5]
                                  [--qseed 0]
"""
from __future__ import annotations

import argparse

from _session import get_spark, print_rows

from repro.core.topl import topl_icde
from repro.experiments.datasets import prepare
from repro.experiments.runner import make_query


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--kind", default="nws", choices=["nws", "dblp", "amazon"])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--dist", default="uniform")
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--theta", type=float, default=0.2)
    ap.add_argument("--L", type=int, default=5)
    ap.add_argument("--qseed", type=int, default=0)
    args = ap.parse_args()
    spark = get_spark("run_topl")
    prep = prepare(spark, kind=args.kind, n=args.n, dist=args.dist)
    q = make_query(k=args.k, r=args.r, theta=args.theta, L=args.L, qseed=args.qseed)
    res = topl_icde(prep.local, prep.index, q, prep.pre.thetas)
    print_rows(
        f"top-{args.L} communities (query keywords: {sorted(q.keywords)})",
        [
            {
                "rank": i + 1,
                "center": c.center,
                "size": len(c.vertices),
                "sigma": round(c.sigma, 2),
                "members": ",".join(map(str, sorted(c.vertices)[:12]))
                + ("…" if len(c.vertices) > 12 else ""),
            }
            for i, c in enumerate(res)
        ],
    )
    spark.stop()


if __name__ == "__main__":
    main()
