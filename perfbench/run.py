"""Benchmark entry point: one workload, one seed, one JSON line of results.

Run from the repository root::

    python3 perfbench/run.py --workload topl-uni --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that records spans around calls into each
layer and reports the per-layer metrics instead. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the full record
(environment, answer digest, metrics) is written under ``.bench_build/``.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 64
DEFAULT_GRAPH_SEED = 1
#: percentile reported as the query tail (see PROFILES' ``min_timed``)
TAIL_PCT = 85

END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    f"query_p{TAIL_PCT}_ms": "ms",
    "queries_per_s": "1/s",
    "atindex_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["topl-uni", "dtopl-zipf"])
    p.add_argument("--seed", type=int, required=True, help="query-stream seed")
    p.add_argument("--seconds", type=float, required=True, help="length of the timed stream")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument(
        "--graph-seed", type=int, default=DEFAULT_GRAPH_SEED,
        help=f"seed of the generated graph (default {DEFAULT_GRAPH_SEED})",
    )
    p.add_argument("--profile", choices=["default", "smoke"], default="default")
    p.add_argument(
        "--inject-fault", action="store_true",
        help="corrupt the first timed answer before its check (self-test only)",
    )
    return p.parse_args(argv)


def prepare_environment(root: str) -> str:
    """Point every file Spark and Python write at ``.bench_build/`` and make
    ``src/`` importable here and in Spark's Python workers."""
    src = os.path.join(root, "src")
    work = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(work, "tmp")
    local_dirs = os.path.join(work, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local_dirs, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = local_dirs
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} "
        "pyspark-shell"
    )
    sys.path.insert(0, src)
    return work


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        # keep every job's group so the traced run can count jobs per layer
        .config("spark.ui.retainedJobs", "1000000")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def git_commit(root: str) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def jvm_peak_rss_mb(spark) -> float:
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def settle_listener(spark) -> None:
    """Wait until Spark has recorded every finished job."""
    spark.sparkContext._jsc.sc().listenerBus().waitUntilEmpty()


def _timed(fn) -> float:
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def timed_stream(args, prof, runner, tally, stream, pass_len, setup_s, samples):
    """End-to-end metrics: whole passes of the stream, nothing wrapped."""
    import calibrate
    from workloads import percentile

    system, reference, wall, slices = [], [], [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= prof["max_stream_s"] or (
            elapsed >= args.seconds
            and len(system) >= prof["min_timed"]
            and len(system) % pass_len == 0
        ):
            break
        q, n = next(stream)
        before = calibrate.run_slice()
        res = tally.attempt(lambda: runner.op(q, n))
        if res is not None:
            slices.append((before + calibrate.run_slice()) / 2)
            system.append(res.system_s)
            reference.append(res.reference_s)
            wall.append(res.system_wall_s)
    samples["system_ms"] = [1e3 * x for x in system]
    samples["reference_ms"] = [1e3 * x for x in reference]
    samples["system_wall_ms"] = [1e3 * x for x in wall]
    samples["slice_ms"] = [1e3 * x for x in slices]
    system = calibrate.normalise(system, slices)
    reference = calibrate.normalise(reference, slices)
    return {
        "setup_s": setup_s,
        "query_p50_ms": 1e3 * statistics.median(system),
        f"query_p{TAIL_PCT}_ms": 1e3 * percentile(system, TAIL_PCT),
        "queries_per_s": len(system) / sum(system),
        "atindex_p50_ms": 1e3 * statistics.median(reference),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }


def traced_stream(spark, runner, tally, stream, pass_len, tracer, work, name):
    """Per-layer metrics: the traced ops, each also run untraced."""
    import layers

    plain = traced = 0.0
    ops = []
    for i in range(pass_len):
        q, n = next(stream)
        ops.append((q, n))
        # the same query untraced, alternately before and after the traced
        # one, so drift within the run cancels out of the overhead
        if i % 2:
            plain += _timed(lambda: runner.system(q, n))
        tracer.op = i
        with tracer.active():
            res = tally.attempt(lambda: runner.op(q, n))
        tracer.op = None
        if not i % 2:
            plain += _timed(lambda: runner.system(q, n))
        traced += res.system_s if res is not None else 0.0
    # the dataflow path on the first query only: it costs Spark jobs per query
    q, n = ops[0]
    tally.attempt(lambda: runner.dataflow_op(spark, q, n, tracer.active))
    settle_listener(spark)
    with open(os.path.join(work, f"spans-{name}.json"), "w") as f:
        json.dump(tracer.spans, f)
    return layers.metrics(
        tracer,
        ops=len(ops),
        overhead_frac=traced / plain - 1.0 if plain else 0.0,
        jvm_peak_rss_mb=jvm_peak_rss_mb(spark),
    )


def run(args, root: str, work: str, name: str):
    import pyspark

    import layers
    from spans import Tracer
    from workloads import PROFILES, Runner, Tally, build, check_build, digest, plan, query_stream

    prof = PROFILES[args.profile]
    spark = start_spark()
    sc = spark.sparkContext
    env = {
        "workload": args.workload,
        "query_seed": args.seed,
        "graph_seed": args.graph_seed,
        "profile": args.profile,
        "n_vertices": prof["n"],
        "nproc": os.cpu_count(),
        "spark_master": sc.master,
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "driver_memory": DRIVER_MEMORY,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "git_commit": git_commit(root),
        "trace": args.trace,
    }
    samples = {}
    tracer = Tracer(sc) if args.trace else None
    runner = None
    try:
        if tracer is not None:
            layers.install(tracer)
            with tracer.active(), tracer.span("bench.build"):
                built = build(spark, args.workload, prof["n"], args.graph_seed)
        else:
            built = build(spark, args.workload, prof["n"], args.graph_seed)
        setup_s = time.perf_counter() - T_START
        prep = built.prep
        # one cold build each, so too noisy to bound (README); recorded only
        env["build_s"] = built.build_s
        env["atindex_build_s"] = built.atindex_build_s
        env["build_stages_s"] = dict(prep.timings)

        tally = Tally()
        tally.record(check_build(prep, prof["check_rows"], args.seed))
        runner = Runner(args.workload, prep)
        pass_len = len(plan(args.workload))

        # untimed warm-up on its own stream; its answers are the run's digest
        warm = []
        warm_stream = query_stream(args.workload, f"warm-up {args.seed}")
        for _ in range(prof["warmup"]):
            q, n = next(warm_stream)
            res = tally.attempt(lambda: runner.op(q, n))
            warm.append(res.answer if res is not None else [])
        env["answer_digest"] = digest(warm)
        env["digest_queries"] = len(warm)

        runner.corrupt_next = args.inject_fault
        stream = query_stream(args.workload, args.seed)
        if tracer is None:
            metrics = timed_stream(
                args, prof, runner, tally, stream, pass_len, setup_s, samples
            )
            env["timed_queries"] = len(samples["system_ms"])
            units = END_TO_END
        else:
            metrics = traced_stream(spark, runner, tally, stream, pass_len, tracer, work, name)
            units = layers.PER_LAYER
    finally:
        if runner is not None:
            runner.close()
        stop_spark(spark)
    return env, samples, metrics, units, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "core", "topl.py")):
        print("perfbench: run from the repository root (src/repro is missing)", file=sys.stderr)
        return 2
    work = prepare_environment(root)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env, samples, metrics, units, tally = run(args, root, work, name)

    for metric, value in metrics.items():
        print(f"{metric} = {value:.6g} {units[metric]}")
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {**result, "environment": env, "samples": samples, "notes": tally.notes[:20]}
    with open(os.path.join(work, f"{name}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
