"""freeabcat benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload eval-member --seed 1 --seconds 15 --trace 0

Workloads: eval-member, category, suites, cli (see perfbench/README.md).
Every workload is a closed loop with one client: the next op starts when
the previous one returns.  The library gets only the generated inputs.

With --trace 0 the run times ops for --seconds seconds (and at least
MIN_OPS ops) and reports the end-to-end metrics.  With --trace 1 it runs a
fixed number of ops twice, untraced and then traced, and reports the
per-layer metrics.  The last line of standard output is the result object;
the lines before it record the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

from tracer import MODULES, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("eval-member", "category", "suites", "cli")
SETUP_REPS = 5        # set-up (import, inputs, expected answers, warm-up) runs
MIN_OPS = 100          # leaves at least 10 samples above the 90th percentile
MAX_LOOP_S = 120.0     # hard stop for a run on a very slow machine

# Machine speed reference.  The host's CPU speed drifts by a fifth or more
# over tens of seconds (other tenants), which swamps the program's own
# run-to-run spread.  A fixed pure-Python loop, timed every REF_EVERY_S
# between ops, tracks that drift; every timing is scaled by REF_NOMINAL_S
# over the median of the reference samples around it, so the end-to-end
# times read as on a machine where the loop takes REF_NOMINAL_S.
REF_LOOP = 40_000
REF_NOMINAL_S = 0.004
REF_EVERY_S = 0.1
REF_BLOCK = 20         # reference samples per scaling block (about 2 s)


def git_commit(root: str) -> str:
    """HEAD commit read from .git without running git; 'unknown' elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_op(case, i: int, failures: list[str]):
    """Run op i, made by `plan.case(i)`; returns (seconds, ok).

    Only the call is timed: the inputs and expected answer are made before
    the clock starts and the check runs after it stops.
    """
    thunk, check = case
    t0 = time.perf_counter()
    try:
        value = thunk()
    except Exception:  # an op that raises is a failed op, not a crashed run
        dt = time.perf_counter() - t0
        failures.append(f"op {i} raised:\n{traceback.format_exc()}")
        return dt, False
    dt = time.perf_counter() - t0
    if not check(value):
        failures.append(f"op {i} answered {value!r:.300}")
        return dt, False
    return dt, True


def reference() -> float:
    """Seconds taken by the fixed reference loop right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


def measure(plan, seconds: float, failures: list[str]):
    """Closed loop for `seconds`; returns (raw, scaled latencies, failed, attempted, refs).

    A reference sample is taken before an op whenever REF_EVERY_S has passed
    since the last one; an op's scale is REF_NOMINAL_S over the median of the
    REF_BLOCK samples of its block.
    """
    timed, refs, failed, i = [], [], 0, 0
    start = last_ref = time.perf_counter()
    refs.append(reference())
    while True:
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(reference())
            last_ref = time.perf_counter()
        dt, ok = timed_op(plan.case(i), i, failures)
        i += 1
        if ok:
            timed.append((len(refs) - 1, dt))
        else:
            failed += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i >= MIN_OPS) or elapsed >= MAX_LOOP_S:
            break
    blocks = [statistics.median(refs[b:b + REF_BLOCK]) for b in range(0, len(refs), REF_BLOCK)]
    raw = [dt for _, dt in timed]
    scaled = [dt * REF_NOMINAL_S / blocks[r // REF_BLOCK] for r, dt in timed]
    return raw, scaled, failed, i, refs


def peak_rss_mb(plan) -> float:
    who = resource.RUSAGE_CHILDREN if plan.rss == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    """Throughput and latency percentiles; failed ops are excluded."""
    lat = sorted(latencies)
    if not lat:
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_p90_ms": 0.0}
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": percentile(lat, 0.9) * 1e3,
    }


def untraced_run(plan, seconds, setup, failures):
    raw, scaled, failed, attempted, refs = measure(plan, seconds, failures)
    p90 = percentile(sorted(scaled), 0.9) if scaled else 0.0
    units = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
    metrics = {k: (v, units[k]) for k, v in latency_metrics(scaled).items()}
    metrics["setup_s"] = (setup["scaled_s"], "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(plan), "MiB")
    info = {
        "samples": len(scaled),
        "samples_above_p90": sum(1 for v in scaled if v > p90),
        "failed_ratio": failed / attempted,
        "reference_samples": len(refs),
        "reference_median_s": statistics.median(refs),
        "reference_nominal_s": REF_NOMINAL_S,
        "unscaled": {**latency_metrics(raw), "setup_s": setup["raw_s"]},
    }
    return metrics, attempted, failed, info


def traced_run(plan, workload, seed, required, failures):
    n = plan.trace_ops
    untraced = sum(timed_op(plan.case(i), i, failures)[0] for i in range(n))
    # inputs and expected answers of the traced pass are made before the
    # tracer is installed, so its spans and counts cover the ops alone
    cases = [plan.case(i) for i in range(n)]
    tracer = Tracer()
    plan.start_trace(tracer)
    traced, failed = 0.0, 0
    for i, case in enumerate(cases):
        tracer.begin_op(i)
        dt, ok = timed_op(case, i, failures)
        traced += dt
        failed += not ok
    out = tracer.summary(traced)
    out["bench.trace_overhead_ratio"] = untraced / traced
    child_import = getattr(plan, "child_import_s", [])
    child_startup = getattr(plan, "child_startup_s", [])
    out["cli.import_s"] = statistics.mean(child_import) if child_import else 0.0
    out["cli.startup_s"] = statistics.mean(child_startup) if child_startup else 0.0
    tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv"))

    missing = [s for s in required if not out[f"{s}.calls"]]
    if missing:
        failures.append(f"spans with zero calls: {', '.join(missing)}")
    metrics = {name: (value, per_layer_unit(name)) for name, value in out.items()}
    info = {"traced_ops": n, "missing_spans": missing}
    return metrics, n, failed, info


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("linalg.snf.in_cells", "linalg.matrix.built",
                                           "linalg.matmul.mults", "squares.summands"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits_max"):
        return "bits"
    if name.endswith(".bytes"):
        return "B"
    return "ratio"


def fresh_import():
    """Import the package and the workload drivers anew; returns the drivers."""
    for name in [n for n in sys.modules
                 if n in ("freeabcat", "workloads") or n.startswith("freeabcat.")]:
        del sys.modules[name]
    for mod in MODULES:
        importlib.import_module(f"freeabcat.{mod}")
    return importlib.import_module("workloads")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "freeabcat", "__init__.py")):
        print(f"perfbench: no freeabcat sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    # one CPU for the run and its children, so that the reference loop is
    # timed on the CPU the ops run on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT_DIR, exist_ok=True)
    setups, scaled, plan = [], [], None
    for _ in range(SETUP_REPS):
        if plan is not None:
            plan.close()
        ref = statistics.median(reference() for _ in range(5))
        t0 = time.perf_counter()
        workloads = fresh_import()
        plan = workloads.build(args.workload, args.seed, ROOT, OUT_DIR)
        plan.warm_up()
        setups.append(time.perf_counter() - t0)
        scaled.append(setups[-1] * REF_NOMINAL_S / ref)
    setup = {"raw_s": statistics.median(setups), "scaled_s": statistics.median(scaled)}

    failures: list[str] = []
    try:
        if args.trace:
            metrics, attempted, failed, info = traced_run(
                plan, args.workload, args.seed, workloads.REQUIRED_SPANS[args.workload], failures)
        else:
            metrics, attempted, failed, info = untraced_run(plan, args.seconds, setup, failures)
    finally:
        plan.close()

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "load_model": "closed loop, 1 client, 1 process",
        "wait_metric": "none: no queues or threads in the library",
    }
    for failure in failures[:5]:
        print(f"perfbench: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"env": env, "info": info, "result": result}
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("# env " + json.dumps(env, sort_keys=True))
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
