"""Benchmark of the pencil-lab kcf, report and sampling paths.

    python3 bench/run.py --workload kcf --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  One process, one client, one call at a time.  After
set-up the workload's operations run in whole passes until --seconds is
used up; every output is checked right after its call, outside the timed
region.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  The line before it
records the environment and machine.ref_s; bench/results/ keeps the full
record, and the spans of a traced run.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# one BLAS/OpenMP thread: set before numpy loads, so the second core stays
# free for everything else on the machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# set-up is repeated this many times in a run, and its median reported
SETUP_REPEATS = 3
# fewest timed passes, so that every per-input median has a middle value
MIN_PASSES = 3

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_small_s", "s"),
    ("latency_large_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("kcf", "report", "sampling"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_kernel(matrix):
    """Fixed numpy/LAPACK work whose time tracks the machine's speed."""
    import numpy as np

    t = time.perf_counter()
    for _ in range(3):
        np.linalg.eigvalsh(matrix)
        np.linalg.svd(matrix)
    return time.perf_counter() - t


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def set_up(workload, seed, workdir):
    """Generate and write the inputs, then warm every kind of call once."""
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = workloads.WORKLOADS[workload](seed, workdir)
    warmed = set()
    for op in ops:
        if op.kind not in warmed and op.klass == "small":
            op.call()
            warmed.add(op.kind)
    return ops


def pass_schedule(ops, repeats):
    """Op indices of one pass: the small-class block `repeats` times, each
    followed by a share of the other operations, so that the short calls
    are sampled often and all through the pass."""
    small = [k for k, op in enumerate(ops) if op.klass == "small"]
    rest = [k for k, op in enumerate(ops) if op.klass != "small"]
    order = []
    for r in range(repeats):
        order += small
        order += rest[r * len(rest) // repeats:(r + 1) * len(rest) // repeats]
    return order


def check_output(op, out, errors):
    """Check one output; returns 1 for an expected failure, else 0."""
    # a malformed output must mark the run incorrect, not end it
    try:
        return 0 if op.check(out) else 1
    except Exception as err:
        errors.append(f"{op.name}: {type(err).__name__}: {err}")
        return 0


def run_pass(ops, schedule, tracer, pass_id, errors):
    """One pass; returns its time, the per-call latencies and the failures.

    Each output is checked right after its call, outside the timed region,
    so the pass time is the sum of the call latencies."""
    latencies, failed = [], 0
    for k in schedule:
        if tracer is not None:
            tracer.op_id, tracer.pass_id = k, pass_id
        t = time.perf_counter()
        out = ops[k].call()
        latencies.append(time.perf_counter() - t)
        failed += check_output(ops[k], out, errors)
    return sum(latencies), latencies, failed


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pencillab", "__init__.py")):
        print(f"error: no pencillab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import pencillab
    import pencillab.cli  # noqa: F401  (import_s covers the whole package)
    import tracer as tracing
    import workloads

    if not os.path.abspath(pencillab.__file__).startswith(SRC + os.sep):
        print(f"error: pencillab imported from {pencillab.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir = os.path.join(BENCH_DIR, "work", tag)
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            ops = set_up(args.workload, args.seed, workdir)
            setups.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setups)

        ref_matrix = np.random.default_rng(0).standard_normal((160, 160))
        ref_matrix = ref_matrix + ref_matrix.T
        tracer = tracing.Tracer() if args.trace else None
        schedule = pass_schedule(ops, workloads.SMALL_REPEATS[args.workload])
        pass_times, traced_times, traced_ids, ref_times, pass_walls = [], [], [], [], []
        per_op = [[] for _ in ops]
        errors, failed, attempted = [], 0, 0
        t_measure = time.perf_counter()
        while True:
            # a traced run alternates untraced and traced passes, so the
            # tracing overhead is measured under the same machine phase
            pass_no = len(pass_times) + len(traced_times)
            traced = tracer is not None and pass_no % 2 == 1
            t_pass = time.perf_counter()
            if traced:
                tracer.install()
            try:
                wall, lats, pass_failed = run_pass(
                    ops, schedule, tracer if traced else None, pass_no, errors)
            finally:
                if traced:
                    tracer.uninstall()
            (traced_times if traced else pass_times).append(wall)
            if traced:
                traced_ids.append(pass_no)
            else:
                for k, lat in zip(schedule, lats):
                    per_op[k].append(lat)
            attempted += len(schedule)
            failed += pass_failed
            ref_times.append(reference_kernel(ref_matrix))
            pass_walls.append(time.perf_counter() - t_pass)
            elapsed = time.perf_counter() - t_measure
            # the stopping rule counts the checks too, so a run keeps to --seconds
            typical = statistics.median(pass_walls)
            enough = len(pass_walls) >= MIN_PASSES + (tracer is not None)
            if enough and elapsed + typical > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_median = [statistics.median(v) for v in per_op]
    ok = [not op.expect_failure for op in ops]

    def class_latency(klass):
        vals = [m for m, op, good in zip(op_median, ops, ok) if op.klass == klass and good]
        return statistics.median(vals)

    ops_per_s = len(schedule) / statistics.median(pass_times)
    ref_s = statistics.median(ref_times)
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, traced_ids)
        units = dict(tracing.PER_LAYER)
        metrics["machine.ref_s"] = ref_s
        metrics["trace.ops_per_s"] = len(schedule) / statistics.median(traced_times)
        metrics["trace.overhead"] = statistics.median(traced_times) / statistics.median(pass_times)
        units.update({"machine.ref_s": "s", "trace.ops_per_s": "ops/s", "trace.overhead": "ratio"})
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "latency_small_s": class_latency("small"),
            "latency_large_s": class_latency("large"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "machine.ref_s": ref_s,
        "ref_s_per_pass": ref_times,
        "passes": len(pass_times),
        "calls_per_pass": len(schedule),
        "traced_passes": len(traced_times),
        "pass_s": pass_times,
        "traced_pass_s": traced_times,
        "setup_repeats_s": setups,
        "import_s": import_s,
        "per_op_median_s": {op.name: m for op, m in zip(ops, op_median)},
        "errors": errors,
        "result": result,
    }
    with open(os.path.join(results_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if tracer is not None:
        tracer.write(os.path.join(results_dir, tag + ".spans.jsonl"))
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("environment", "machine.ref_s", "passes")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
