"""Run one DTopL-ICDE query (Greedy_WP by default) and print the diversified
set with its diversity score.

    spark-submit jobs/run_dtopl.py [--L 5] [--dtopl-n 5] [--method wp]
"""
from __future__ import annotations

import argparse

from _session import get_spark, print_rows

from repro.core.diversify import diversity, dtopl_icde
from repro.experiments.datasets import prepare
from repro.experiments.runner import make_query


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--kind", default="nws", choices=["nws", "dblp", "amazon"])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--dist", default="uniform")
    ap.add_argument("--L", type=int, default=5)
    ap.add_argument("--dtopl-n", type=int, default=5)
    ap.add_argument("--method", default="wp", choices=["wp", "wop", "optimal"])
    ap.add_argument("--qseed", type=int, default=0)
    args = ap.parse_args()
    spark = get_spark("run_dtopl")
    prep = prepare(spark, kind=args.kind, n=args.n, dist=args.dist)
    q = make_query(L=args.L, qseed=args.qseed)
    sel = dtopl_icde(
        prep.local, prep.index, q, prep.pre.thetas, n=args.dtopl_n, method=args.method
    )
    print_rows(
        f"diversified top-{args.L} (D = {diversity(sel):.2f})",
        [
            {
                "pick": i + 1,
                "center": c.center,
                "size": len(c.vertices),
                "sigma": round(c.sigma, 2),
                "influenced": len(c.cpp),
            }
            for i, c in enumerate(sel)
        ],
    )
    spark.stop()


if __name__ == "__main__":
    main()
