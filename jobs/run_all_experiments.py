"""Regenerate every evaluation table/figure of the paper in one run.

    spark-submit jobs/run_all_experiments.py [--out results.md]

Prints each result table and (optionally) writes them as one markdown
digest. ``REPRO_SWEEP_NV_MAX`` bounds the scalability sweeps
(``params.SWEEP_NV``).
"""
from __future__ import annotations

import argparse
import io
import time
from contextlib import redirect_stdout

from _session import get_spark, print_rows

from repro.experiments import fig2, fig3, fig4, fig5, fig6
from repro.experiments.datasets import table2_stats


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spark = get_spark("run_all_experiments")
    spark.sparkContext.setLogLevel("ERROR")
    buf = io.StringIO()

    class Tee(io.TextIOBase):
        def write(self, s):
            buf.write(s)
            import sys

            sys.__stdout__.write(s)
            return len(s)

    t0 = time.time()
    with redirect_stdout(Tee()):
        print_rows("Table II (stand-in stats)", table2_stats(spark))
        print_rows("Fig 2 (TopL-ICDE vs ATindex)", fig2.run(spark))
        print_rows("Fig 3a (theta)", fig3.sweep_theta(spark))
        print_rows("Fig 3b (|Q|)", fig3.sweep_qsize(spark))
        print_rows("Fig 3c (k)", fig3.sweep_k(spark))
        print_rows("Fig 3d (r)", fig3.sweep_r(spark))
        print_rows("Fig 3e (L)", fig3.sweep_L(spark))
        print_rows("Fig 3f (|v.W|)", fig3.sweep_w(spark))
        print_rows("Fig 3g (|Sigma|)", fig3.sweep_sigma_domain(spark))
        print_rows("Fig 3h (|V| scalability)", fig3.sweep_scale(spark))
        print_rows("Fig 4 (pruning ablation)", fig4.run(spark))
        print_rows("Fig 5 (case study truss vs k-core)", fig5.run(spark))
        print_rows("Fig 6a (DTopL methods)", fig6.run_datasets(spark))
        print_rows("Fig 6b (DTopL vary L)", fig6.sweep_L(spark))
        print_rows("Fig 6c (DTopL vary n)", fig6.sweep_n(spark))
        print_rows("Fig 6d (DTopL scalability)", fig6.sweep_scale(spark))
        print_rows("Fig 6e (DTopL accuracy)", fig6.accuracy(spark))
        print(f"\ntotal wall clock: {time.time() - t0:.1f}s")
    if args.out:
        with open(args.out, "w") as f:
            f.write("```\n" + buf.getvalue() + "\n```\n")
    spark.stop()


if __name__ == "__main__":
    main()
