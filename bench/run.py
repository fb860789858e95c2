"""Run one workload of the otocap benchmark and print its metrics.

    python3 bench/run.py --workload verify_full_n4 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; otocap is imported from its ``src``.
With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run instead.  Lines before it say what ran and
which checks applied.  A result file with provenance, and in a traced
run the spans as JSON lines, go to ``bench/results/``.  See README.md.
"""

from __future__ import annotations

import os

# one process, one thread: keep BLAS from starting worker threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "correct_frac": "frac",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "matrices.cut_state_matrix.calls": "count",
    "matrices.cut_state_matrix.ms": "ms",
    "matrices.log_det_capacity.calls": "count",
    "matrices.log_det_capacity.ms": "ms",
    "matrices.cut_dominance_ratio.calls": "count",
    "matrices.cut_dominance_ratio.ms": "ms",
    "model.effective_channel.calls": "count",
    "model.effective_channel.ms": "ms",
    "matrices.unique_block_ratio": "frac",
    "capacity.imperfect_value_table.ms": "ms",
    "capacity.imperfect_value_table.self_ms": "ms",
    "bounds.check_assumptions.ms": "ms",
    "bounds.check_assumptions.self_ms": "ms",
    "enumeration.build_state_space.calls": "count",
    "enumeration.build_state_space.ms": "ms",
    "enumeration.patterns": "count",
    "enumeration.cuts": "count",
    "optimize.solve_maxmin.calls": "count",
    "optimize.solve_maxmin.ms": "ms",
    "optimize.lp_rows": "count",
    "optimize.lp_cols": "count",
    "capacity.linear_value_table.calls": "count",
    "capacity.linear_value_table.ms": "ms",
    "capacity.capacity_ideal.self_ms": "ms",
    "capacity.rate_tsn.self_ms": "ms",
    "capacity.capacity_imperfect.self_ms": "ms",
    "capacity.link_rates.calls": "count",
    "capacity.link_rates.ms": "ms",
    "model.max_degree.calls": "count",
    "bounds.verify_instance.self_ms": "ms",
    "bounds.constant_gap_condition.ms": "ms",
    "bounds.tsn_gap_bound.ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.load_instance.ms": "ms",
    "cli.build_state_space.calls": "count",
    "cli.output_bytes": "bytes",
    "instancegen.generate.ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
}


@dataclass
class Attempt:
    item: object
    ns: int
    result: object
    errors: list


def attempt(workload, item) -> Attempt:
    """Run one item, timing only the call into otocap, then check it."""
    start = time.perf_counter_ns()
    try:
        raw = workload.run(item)
    except Exception:  # a raising item is a failed item; the loop goes on
        ns = time.perf_counter_ns() - start
        return Attempt(item, ns, None, [f"item {item.index}: {traceback.format_exc(limit=-2)}"])
    ns = time.perf_counter_ns() - start
    try:
        result = workload.collect(item, raw)
        return Attempt(item, ns, result, workload.check(item, result))
    except Exception:  # unreadable output is a failed item too
        return Attempt(item, ns, None, [f"item {item.index}: {traceback.format_exc(limit=-2)}"])


def closed_loop(workload, pool, seconds: float) -> tuple[list[Attempt], int]:
    """One caller cycles the pool until ``seconds`` have passed."""
    attempts = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while True:
        attempts.append(attempt(workload, pool[len(attempts) % len(pool)]))
        now = time.perf_counter_ns()
        if now >= deadline:
            return attempts, now - start


def tail_latency(sorted_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND items beyond it.

    With TAIL_BEYOND items or fewer there is no such percentile, and the
    maximum is returned as the 100th.
    """
    n = len(sorted_ms)
    if n <= TAIL_BEYOND:
        return sorted_ms[-1], 100.0
    return sorted_ms[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def os_threads() -> int | None:
    """Threads of this process, to show that nothing started workers."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return None


def provenance(workloads, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "os_threads": os_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload_seed": seed,
        "reference_seeds": list(workloads.REFERENCE_SEEDS),
    }


def problem_sizes(workloads, pool, timed_items: int) -> tuple[dict, object]:
    cache = workloads.SizeCache()
    per_item = [cache.sizes(item) for item in pool]
    out = {"pool_items": len(pool), "timed_items": timed_items}
    for key in per_item[0]:
        values = [s[key] for s in per_item]
        out[key] = {"mean": sum(values) / len(values), "max": max(values)}
    return out, cache


def end_to_end(attempts, elapsed_ns, setup) -> tuple[dict, dict]:
    n = len(attempts)
    ok = sum(1 for a in attempts if not a.errors)
    lat = sorted(a.ns / 1e6 for a in attempts)
    tail, pct = tail_latency(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": ok / (elapsed_ns / 1e9),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail,
        "correct_frac": ok / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"percentile": pct, "items": n}


def traced_replay(workloads, workload, pool, attempts, size_cache):
    """Per-layer metrics from replaying the timed items with wrappers on.

    Also the self-test of the wrappers: the replay must reproduce every
    untraced output bit for bit, and set-up must regenerate the same pool.
    """
    import layertrace

    rec = layertrace.Recorder()
    with layertrace.traced(rec, workloads.otocap):
        rec.item = "setup"
        regenerated = workload.build()
        replay = []
        for k, a in enumerate(attempts):
            rec.item = k
            replay.append(attempt(workload, a.item))
        rec.item = None

    errors = []
    to_json = workloads.cli.instance_to_json
    if [to_json(i.inst) for i in regenerated] != [to_json(i.inst) for i in pool]:
        errors.append("traced set-up generated a different pool")
    for k, (a, r) in enumerate(zip(attempts, replay)):
        if a.result is not None and (
            r.result is None or workload.fingerprint(a.result) != workload.fingerprint(r.result)
        ):
            errors.append(f"traced item {k} output differs from untraced")

    items = range(len(replay))
    metrics = rec.summarize(items)
    metrics["instancegen.generate.ms"] = rec.summarize(["setup"])["instancegen.generate.ms"]
    blocks = metrics.get("matrices.cut_state_matrix.calls", 0.0) * len(replay)
    distinct = sum(size_cache.sizes(a.item)["distinct_blocks"] for a in attempts)
    metrics["matrices.unique_block_ratio"] = distinct / blocks if blocks else 0.0
    outputs = [workload.output_bytes(r.result) for r in replay if r.result is not None]
    metrics["cli.output_bytes"] = sum(outputs) / len(outputs) if outputs else 0.0
    metrics["trace.overhead_frac"] = (
        sum(r.ns for r in replay) / sum(a.ns for a in attempts) - 1.0
    )
    covered = {k: 0 for k in items}
    for span in rec.spans:
        if span.parent is None and span.item in covered:
            covered[span.item] += span.child_ns
    metrics["trace.coverage"] = statistics.mean(covered[k] / replay[k].ns for k in items)
    notes = {"absent": rec.absent, "sizer_errors": rec.sizer_errors,
             "unique_block_base": {"distinct": distinct, "built": blocks},
             "coverage_min": min(covered[k] / replay[k].ns for k in items)}
    return replay, metrics, errors, notes, rec


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import otocap from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workloads, cls(args.seed, workdir), import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, workload, import_s) -> int:
    errors = []
    setup = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        pool = workload.build()
        errors += attempt(workload, pool[0]).errors  # warm-up, outside the timed set
        setup.append(import_s + time.perf_counter() - start)
    gc.collect()
    seconds = args.seconds / 2 if args.trace else args.seconds
    attempts, elapsed_ns = closed_loop(workload, pool, seconds)
    sizes, size_cache = problem_sizes(workloads, pool, len(attempts))

    metrics, tail = end_to_end(attempts, elapsed_ns, setup)
    notes = {"tail": tail}
    units = END_TO_END
    ran = list(attempts)
    if args.trace:
        notes["untraced_end_to_end"] = metrics
        replay, metrics, trace_errors, trace_notes, rec = traced_replay(
            workloads, workload, pool, attempts, size_cache)
        notes.update(trace_notes)
        errors += trace_errors
        ran += replay
        units = PER_LAYER
        RESULTS_DIR.mkdir(exist_ok=True)
        rec.write_jsonl(RESULTS_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    errors += [e for a in ran for e in a.errors]
    failed = sum(1 for a in ran if a.errors)

    reported = {name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items() if name in metrics}
    absent = sorted(set(units) - set(reported))
    result_file = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    RESULTS_DIR.mkdir(exist_ok=True)
    result_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(workloads, args.seed),
        "checks": workload.checks,
        "sizes": sizes,
        "import_s": import_s,
        "setup_s_each": setup,
        "attempted": len(ran),
        "failed": failed,
        "errors": errors[:20],
        "latencies_ms": [[a.item.index, a.ns / 1e6] for a in attempts],
        "absent_metrics": absent,
        "notes": notes,
        "metrics": metrics,
    }, indent=2) + "\n")

    for e in errors[:20]:
        print(f"error: {e}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(ran)} items, "
          f"{failed} failed; checks: {workload.checks}")
    if not args.trace:
        print(f"# latency_tail_ms is p{tail['percentile']:.1f} of {tail['items']} items")
    if absent:
        print(f"# absent metrics: {', '.join(absent)}; reasons: {notes.get('absent')}")
    print(f"# result file: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": not errors, "attempted": len(ran), "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
